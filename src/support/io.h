// Checked file I/O. std::ofstream reports open failures eagerly but write
// failures only through stream state — code that checks good() at open and
// never again reports disk-full as success. Every file the system claims to
// have written goes through these helpers, which verify the stream after
// write + flush and fail loudly.
#pragma once

#include <string>

namespace perfdojo {

/// Writes `content` to `path` (truncating), throws Error when the file
/// cannot be opened OR when any write/flush fails (disk full, I/O error).
void writeTextFile(const std::string& path, const std::string& content);

/// Crash-safe variant: writes a temp file unique to this call in `path`'s
/// directory (mkstemp), then atomically renames it over `path` (POSIX rename
/// semantics), so readers never observe a torn file — either the old content
/// or the new, never a prefix — and concurrent writers of one path each
/// install one complete version. The temp file is removed on failure. No
/// fsync: this survives a process crash, not a power loss.
void writeTextFileAtomic(const std::string& path, const std::string& content);

/// Reads the whole file; throws Error when it cannot be opened or read.
std::string readTextFile(const std::string& path);

}  // namespace perfdojo
