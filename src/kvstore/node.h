// One storage node: a block cache and media device shared by the node's
// per-table storage engines.

#ifndef MINICRYPT_SRC_KVSTORE_NODE_H_
#define MINICRYPT_SRC_KVSTORE_NODE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/kvstore/block_cache.h"
#include "src/kvstore/media.h"
#include "src/kvstore/storage_engine.h"

namespace minicrypt {

class Node {
 public:
  Node(int id, size_t cache_bytes, std::unique_ptr<Media> media,
       StorageEngineOptions engine_options);

  int id() const { return id_; }
  Media* media() { return media_.get(); }
  const Media* media() const { return media_.get(); }
  BlockCache* cache() { return &cache_; }

  // Replica read legs the coordinator is running on this node right now —
  // the load signal its replica choice orders by. Counted per node, not per
  // engine, because the node's engines share one media queue.
  int reads_in_flight() const { return reads_in_flight_.load(std::memory_order_relaxed); }
  void BeginRead() { reads_in_flight_.fetch_add(1, std::memory_order_relaxed); }
  void EndRead() { reads_in_flight_.fetch_sub(1, std::memory_order_relaxed); }

  // Creates the engine for `table` if missing. `server_compression` fixes the
  // table's at-rest block compression on first creation.
  StorageEngine* EngineFor(std::string_view table, bool server_compression);

  // nullptr when the table does not exist on this node.
  StorageEngine* FindEngine(std::string_view table);

  // Applies `fn` to every (table, engine) pair, in table order. Holds the
  // node's engine-map mutex for the duration; `fn` may call engine methods
  // (engine mutexes nest below).
  void ForEachEngine(const std::function<void(const std::string& table, StorageEngine*)>& fn);

  void DropTable(std::string_view table);

  // Stored bytes across every engine (at rest + memtable) — the coarse load
  // signal the cluster's token rebalancer falls back on and exports as the
  // ring.node_bytes gauge.
  size_t ApproximateBytes();

 private:
  int id_;
  BlockCache cache_;
  std::unique_ptr<Media> media_;
  StorageEngineOptions engine_options_;
  std::atomic<int> reads_in_flight_{0};

  std::mutex mu_;
  uint64_t next_engine_ordinal_ = 0;  // sizes each engine's SSTable-id space
  std::map<std::string, std::unique_ptr<StorageEngine>, std::less<>> engines_;
};

}  // namespace minicrypt

#endif  // MINICRYPT_SRC_KVSTORE_NODE_H_
