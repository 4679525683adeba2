// Sharded, content-addressed on-disk record store — the persistence layer
// behind the tuning server's schedule cache.
//
// Keys are 64-bit content hashes (canonical program hash mixed with the
// request parameters, see libgen::requestKey); records are opaque
// single-line JSON strings. Records land in one of N shard files
// (`shard-KKK.jsonl`, shard = key % N).
//
// Each shard file is an append-only log of lines
//
//   <16-hex key> <16-hex checksum> <record>\n
//
// where the checksum is FNV-1a over the key's hex digits and the record
// bytes. The later line for a key wins. Files written before lines carried
// a checksum ("<key> <record>") still load.
//
// Locking. Several processes may share one directory (several
// `perfdojo serve --cache-dir D`). A put appends its line with one write(2)
// to an O_APPEND descriptor under an exclusive flock on the shard file: O(1)
// work whatever the store holds, and no put can lose another process's
// record. A process serves what it loaded at open plus its own puts; records
// other processes put later reach it at its next open. Open reads each
// shard under a shared flock. Compaction renames a new file over
// the shard, so every lock holder checks after locking that the path still
// names the file it locked, and retries on the new file otherwise; an
// append can therefore never land in a file being replaced.
//
// Recovery. A writer killed mid-append leaves a torn last line. The next
// put first appends the missing '\n', so the torn line cannot swallow the
// new record. A put whose write comes up short (disk full, file-size limit)
// truncates the file back to its size before the write and throws. At open,
// every line that fails its checksum or JSON parse is dropped (the other
// lines still load), the shard counts once in `quarantined`, and the damaged
// original is kept as `<shard>.corrupt` for forensics. When open dropped a
// line, saw a key repeat or read a legacy line, it compacts the shard: an
// atomic rewrite (unique temp file + rename) of the live entries under the
// exclusive lock.
//
// What this survives: a process crash at any point (kill -9) and a full
// disk. What it does not: a power loss — nothing is fsync'ed. The worst case
// of losing a record is re-tuning its request.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfdojo::search {

class ShardStore {
 public:
  struct Stats {
    std::int64_t gets = 0;      // lookup calls
    std::int64_t hits = 0;      // lookups served
    std::int64_t puts = 0;      // records written
    int quarantined = 0;        // shard files with damaged lines at load
    std::size_t entries = 0;    // records currently held
    int shards = 0;
  };

  /// Opens (creating if needed) `dir` and loads every existing shard file.
  /// Throws Error when the directory cannot be created; damaged lines and
  /// unreadable shard files are quarantined, not fatal. A store must be
  /// reopened with the shard count it was written with (a record lives in
  /// shard key mod count), so servers always use the default; the parameter
  /// exists for tests that aim several keys at one shard file.
  explicit ShardStore(std::string dir, int shards = 8);

  /// Copies the record for `key` into `out`; false on miss.
  bool get(std::uint64_t key, std::string& out) const;

  /// Inserts or overwrites, then appends the record's line to its shard
  /// file. `record` must be a single line (no '\n'). Throws Error on I/O
  /// failure — the in-memory entry is kept, so serving continues even when
  /// the disk does not.
  void put(std::uint64_t key, const std::string& record);

  Stats stats() const;
  const std::string& dir() const { return dir_; }
  int shardOf(std::uint64_t key) const {
    return static_cast<int>(key % static_cast<std::uint64_t>(nshards_));
  }
  static std::string shardName(int idx);
  std::string shardPath(int idx) const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, std::string> entries;
  };

  /// Loads shard `idx`'s file, compacting it when it holds damaged,
  /// repeated or legacy lines.
  void loadShard(int idx);

  std::string dir_;
  int nshards_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::int64_t> gets_{0};
  mutable std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> puts_{0};
  std::atomic<int> quarantined_{0};
};

}  // namespace perfdojo::search
