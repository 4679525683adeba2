#include "support/io.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/stat.h>
#include <unistd.h>

#include "support/common.h"

namespace perfdojo {

void writeTextFile(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  require(f.good(), "writeTextFile: cannot open " + path);
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
  f.flush();
  require(f.good(), "writeTextFile: I/O error writing " + path);
}

void writeTextFileAtomic(const std::string& path, const std::string& content) {
  // A temp name unique to this call: writers racing on one path each rename
  // their own complete file, never one another's half-written one.
  std::string tmp = path + ".tmp.XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  if (fd < 0)
    fail("writeTextFileAtomic: cannot create a temp file next to " + path +
         ": " + std::strerror(errno));
  int err = ::fchmod(fd, 0644) == 0 ? 0 : errno;
  for (std::size_t done = 0; err == 0 && done < content.size();) {
    const ssize_t n = ::write(fd, content.data() + done, content.size() - done);
    if (n > 0) done += static_cast<std::size_t>(n);
    else if (n == 0) err = EIO;
    else if (errno != EINTR) err = errno;
  }
  if (::close(fd) != 0 && err == 0) err = errno;
  if (err == 0 && ::rename(tmp.c_str(), path.c_str()) != 0) err = errno;
  if (err != 0) {
    ::unlink(tmp.c_str());
    fail("writeTextFileAtomic: " + path + ": " + std::strerror(err));
  }
}

std::string readTextFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  require(f.good(), "readTextFile: cannot open " + path);
  std::ostringstream out;
  out << f.rdbuf();
  require(!f.bad(), "readTextFile: I/O error reading " + path);
  return out.str();
}

}  // namespace perfdojo
