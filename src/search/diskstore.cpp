#include "search/diskstore.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string_view>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/common.h"
#include "support/io.h"
#include "support/numeric.h"
#include "support/telemetry.h"

namespace perfdojo::search {

namespace {

constexpr std::size_t kHexDigits = 16;

/// A descriptor closed, and so unlocked, when it goes out of scope.
struct Fd {
  int fd;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

/// Opens `path` and takes flock `op` on it. Compaction renames a new file
/// over the path while it holds the old file's lock, so a lock won on the
/// replaced file guards nothing: once locked, check that the path still
/// names this file, and start over on the new one if not. Returns -1 with
/// errno set when the file cannot be opened or locked; `st` receives the
/// locked file's status.
int openLocked(const std::string& path, int flags, int op, struct stat& st) {
  for (;;) {
    const int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
    if (fd < 0) return -1;
    int rc;
    while ((rc = ::flock(fd, op)) != 0 && errno == EINTR) {
    }
    if (rc == 0 && ::fstat(fd, &st) == 0) {
      struct stat named;
      if (::stat(path.c_str(), &named) == 0 && named.st_dev == st.st_dev &&
          named.st_ino == st.st_ino)
        return fd;
      ::close(fd);
      continue;
    }
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
}

bool readAll(int fd, std::size_t size, std::string& out) {
  out.resize(size);
  for (std::size_t done = 0; done < size;) {
    const ssize_t n = ::pread(fd, out.data() + done, size - done,
                              static_cast<off_t>(done));
    if (n > 0) done += static_cast<std::size_t>(n);
    else if (n == 0 || errno != EINTR) return false;
  }
  return true;
}

/// FNV-1a over the key's hex digits as written, then the record's bytes.
std::uint64_t lineChecksum(std::string_view key_hex, std::string_view record) {
  return fnv1a(record.data(), record.size(),
               fnv1a(key_hex.data(), key_hex.size()));
}

/// Appends "<16-hex key> <16-hex checksum> <record>\n".
void appendLine(std::string& out, std::uint64_t key, std::string_view record) {
  const std::string key_hex = formatHex64(key);
  out += key_hex;
  out += ' ';
  out += formatHex64(lineChecksum(key_hex, record));
  out += ' ';
  out.append(record);
  out += '\n';
}

/// Splits one shard line into its key and record (a view into `line`).
/// False when the line is damaged: no key, a checksum that does not match,
/// or a record that is not JSON. `legacy` marks the two-field format
/// written before lines carried a checksum.
bool parseLine(std::string_view line, std::uint64_t& key,
               std::string_view& record, bool& legacy) {
  const auto sp = line.find(' ');
  if (sp == std::string_view::npos || !parseHex64(line.substr(0, sp), key))
    return false;
  record = line.substr(sp + 1);
  std::uint64_t sum = 0;
  legacy = !(record.size() > kHexDigits && record[kHexDigits] == ' ' &&
             parseHex64(record.substr(0, kHexDigits), sum));
  if (!legacy) {
    record.remove_prefix(kHexDigits + 1);
    if (sum != lineChecksum(line.substr(0, sp), record)) return false;
  }
  JsonValue doc;
  return parseJson(record, doc);
}

struct Scan {
  bool dropped = false;  // some line was damaged
  bool stale = false;    // a key repeats, or a line is in the legacy format
};

/// Loads every intact line of `text` into `entries`; the later line for a
/// key wins. Each damaged line condemns only itself.
Scan scanShard(std::string_view text,
               std::unordered_map<std::uint64_t, std::string>& entries) {
  entries.clear();
  Scan scan;
  while (!text.empty()) {
    const auto nl = text.find('\n');
    const std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (line.empty()) continue;
    std::uint64_t key = 0;
    std::string_view record;
    bool legacy = false;
    if (!parseLine(line, key, record, legacy)) {
      scan.dropped = true;
      continue;
    }
    const auto [it, fresh] = entries.try_emplace(key, record);
    if (!fresh) it->second.assign(record);
    scan.stale |= legacy || !fresh;
  }
  return scan;
}

/// Appends one line with a single write(2) under the shard's exclusive
/// lock. A line a killed writer left without its '\n' gets one first, so it
/// swallows nothing; a short write (disk full, file-size limit) is cut back
/// off before the throw, so no torn line stays behind.
void appendRecord(const std::string& path, std::uint64_t key,
                  const std::string& record) {
  struct stat st;
  const Fd fd(openLocked(path, O_RDWR | O_APPEND | O_CREAT, LOCK_EX, st));
  if (fd.fd < 0)
    fail("ShardStore::put: cannot open " + path + ": " + std::strerror(errno));
  char last = '\n';
  if (st.st_size > 0 && ::pread(fd.fd, &last, 1, st.st_size - 1) != 1)
    last = '\0';
  std::string line;
  line.reserve(record.size() + 2 * kHexDigits + 4);
  if (last != '\n') line += '\n';
  appendLine(line, key, record);
  const ssize_t n = ::write(fd.fd, line.data(), line.size());
  if (n == static_cast<ssize_t>(line.size())) return;
  std::string why = n < 0 ? std::strerror(errno) : "short write";
  if (::ftruncate(fd.fd, st.st_size) != 0)
    why += std::string("; cutting back the torn line failed: ") +
           std::strerror(errno);
  fail("ShardStore::put: append to " + path + ": " + why);
}

}  // namespace

ShardStore::ShardStore(std::string dir, int shards)
    : dir_(std::move(dir)), nshards_(shards) {
  require(nshards_ >= 1, "ShardStore: shard count must be >= 1");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  require(!ec, "ShardStore: cannot create " + dir_ + ": " + ec.message());
  shards_.reserve(static_cast<std::size_t>(nshards_));
  for (int i = 0; i < nshards_; ++i)
    shards_.push_back(std::make_unique<Shard>());
  for (int i = 0; i < nshards_; ++i) loadShard(i);
}

std::string ShardStore::shardName(int idx) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%03d.jsonl", idx);
  return buf;
}

std::string ShardStore::shardPath(int idx) const {
  return dir_ + "/" + shardName(idx);
}

void ShardStore::loadShard(int idx) {
  auto& entries = shards_[static_cast<std::size_t>(idx)]->entries;
  const std::string path = shardPath(idx);
  // Read under a shared lock; rewrite under the exclusive one. The lock is
  // dropped in between, so the rewrite re-reads what it replaces: another
  // server may have appended meanwhile.
  for (const int op : {LOCK_SH, LOCK_EX}) {
    struct stat st;
    const Fd fd(openLocked(path, O_RDONLY, op, st));
    if (fd.fd < 0) {
      if (errno != ENOENT) ++quarantined_;  // unreadable: serve without it
      return;
    }
    std::string text;
    const bool readable =
        readAll(fd.fd, static_cast<std::size_t>(st.st_size), text);
    Scan scan = scanShard(text, entries);
    scan.dropped |= !readable;
    if (!scan.dropped && !scan.stale) return;
    if (op == LOCK_SH) continue;
    // Compaction is best-effort: the loaded entries serve from memory even
    // when the disk refuses the rewrite, and the next open retries it.
    if (scan.dropped) {
      ++quarantined_;
      try {
        writeTextFileAtomic(path + ".corrupt", text);  // forensic copy
      } catch (const Error&) {
      }
    }
    std::string compacted;
    compacted.reserve(text.size());
    for (const auto& [key, record] : entries)
      appendLine(compacted, key, record);
    try {
      writeTextFileAtomic(path, compacted);
    } catch (const Error&) {
    }
  }
}

bool ShardStore::get(std::uint64_t key, std::string& out) const {
  ++gets_;
  const Shard& sh = *shards_[static_cast<std::size_t>(shardOf(key))];
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.entries.find(key);
  if (it == sh.entries.end()) return false;
  out = it->second;
  ++hits_;
  return true;
}

void ShardStore::put(std::uint64_t key, const std::string& record) {
  require(record.find('\n') == std::string::npos,
          "ShardStore::put: record must be a single line");
  const int idx = shardOf(key);
  Shard& sh = *shards_[static_cast<std::size_t>(idx)];
  std::lock_guard<std::mutex> lk(sh.mu);
  sh.entries[key] = record;
  ++puts_;
  appendRecord(shardPath(idx), key, record);
}

ShardStore::Stats ShardStore::stats() const {
  Stats s;
  s.gets = gets_.load();
  s.hits = hits_.load();
  s.puts = puts_.load();
  s.quarantined = quarantined_.load();
  s.shards = nshards_;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    s.entries += sh->entries.size();
  }
  return s;
}

}  // namespace perfdojo::search
