// Exchange operators: intra-query parallelism for the batch-at-a-time
// engine (the morsel-style counterpart of the thesis's single-threaded
// iterator pipelines).
//
// The unit of parallel work is the TupleBatch. A parallelized plan fragment
// is compiled once per worker; each worker pipeline runs on its own thread,
// pulling batches from its private operator tree and pushing them into a
// bounded SPSC queue of its own. One collector, ExchangeMerge, drains the
// workers with a k-way merge on the queue heads, keyed by the workers'
// common OrderDescriptor with the worker index as the tie-break. Workers
// run the serial engine's operators: the partitioned leaf is a
// FusedPipeline_φ source reading one contiguous pre-order slice of its rows
// (exec/fusion.h), materialized or columnar alike, so each worker's stream
// is locally sorted and the merge re-establishes exactly the serial
// engine's tuple sequence — parallel execution is deterministic and
// byte-identical to thread_budget=1.
//
// Runtime counters: each worker pipeline owns a private counter set (worker
// 0 registers with the plan's ExecContext, workers 1..N-1 with per-worker
// contexts owned by the exchange). After the worker threads are joined,
// Close() rolls workers 1..N-1 up into worker 0's slots, so
// DescribeAnalyze() renders the template pipeline with whole-exchange
// totals. No counter is ever written by two threads.
#ifndef ULOAD_EXEC_EXCHANGE_H_
#define ULOAD_EXEC_EXCHANGE_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "exec/physical.h"

namespace uload {

// Bounded blocking queue of TupleBatches with multi-producer support and
// cooperative shutdown (a consumer closing early unblocks producers).
class BoundedBatchQueue {
 public:
  BoundedBatchQueue(size_t capacity, int producers);

  // Blocks while the queue is full. Returns false once the queue was shut
  // down — the producer should stop producing.
  bool Push(TupleBatch batch) EXCLUDES(mu_);
  // Each producer calls this exactly once when its stream ends.
  void ProducerDone() EXCLUDES(mu_);
  // Blocks until a batch is available; nullopt once every producer is done
  // and the queue is drained (or after Shutdown()).
  std::optional<TupleBatch> Pop() EXCLUDES(mu_);
  // Unblocks all producers and consumers; subsequent Push() returns false.
  void Shutdown() EXCLUDES(mu_);

 private:
  // Guards the whole queue state; can_push_ wakes producers on slot free or
  // shutdown, can_pop_ wakes the consumer on data, last-producer-done, or
  // shutdown. Lock ordering: mu_ is a leaf.
  Mutex mu_;
  CondVar can_push_;
  CondVar can_pop_;
  std::deque<TupleBatch> queue_ GUARDED_BY(mu_);
  const size_t capacity_;
  int producers_left_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
};

// The collector: one SPSC queue per worker plus a k-way merge on the batch
// heads that re-establishes the workers' common order descriptor (ties
// break toward the lower worker index, so contiguous-range partitions
// reproduce the serial tuple sequence exactly).
class ExchangeMergePhys : public PhysicalOperator {
 public:
  explicit ExchangeMergePhys(std::vector<PhysicalPtr> workers);
  // Stops any still-running workers before the queues are destroyed.
  ~ExchangeMergePhys() override;

  const SchemaPtr& schema() const override { return schema_; }
  const OrderDescriptor& order() const override { return order_; }
  std::string label() const override;
  PhysOpKind kind() const override { return PhysOpKind::kExchangeMerge; }
  // The template pipeline (worker 0); Describe()/DescribeAnalyze() render it
  // once on behalf of all workers.
  std::vector<PhysicalOperator*> children() const override;
  // Every worker must deliver its stream ordered on the merge keys, or the
  // k-way merge silently interleaves wrongly.
  OrderDescriptor RequiredChildOrder(size_t child) const override {
    (void)child;
    return order();
  }

  // The plan verifier must see *every* worker pipeline, not just the
  // rendering template.
  std::vector<PhysicalOperator*> VerifyChildren() const override {
    std::vector<PhysicalOperator*> out;
    out.reserve(workers_.size());
    for (const PhysicalPtr& w : workers_) out.push_back(w.get());
    return out;
  }

  size_t worker_count() const { return workers_.size(); }

 protected:
  Status OpenImpl() override;
  Result<std::optional<TupleBatch>> NextBatchImpl() override;
  void CloseImpl() override;
  void BindChildren(ExecContext* ctx) override;

 private:
  // Spawns one thread per worker, each pushing into its own queue.
  void StartWorkers() EXCLUDES(status_mu_);
  // Shuts all queues down, joins the threads, releases the budget charges of
  // batches that were queued but never consumed, and rolls per-worker
  // counters up into worker 0. Safe to call when no workers run.
  void StopWorkers();
  // Shuts every queue down without joining: a failed worker calls this so
  // its siblings (blocked in Push) and the collector stop promptly instead
  // of running the rest of the query. Safe from any worker thread.
  void PoisonAllQueues();
  // First non-OK worker status, or OK. Valid once a queue reported done or
  // after StopWorkers().
  Status WorkerError() EXCLUDES(status_mu_);
  // Refills worker i's head batch from its queue; false once exhausted.
  bool EnsureHead(size_t i);
  // Strict merge-key comparison; ties compare not-less (see the call site
  // for how that preserves the lower-worker-index tie-break).
  bool KeyLess(const Tuple& ta, const Tuple& tb) const;

  std::vector<PhysicalPtr> workers_;
  SchemaPtr schema_;
  OrderDescriptor order_;
  // Query-level budget tracker adopted at bind time (null = ungoverned).
  // Queue slots are charged by the producing worker and released at Pop;
  // OpenImpl() also sizes the queues against its limit.
  MemoryTracker* tracker_ = nullptr;
  std::vector<std::thread> threads_;
  // Each slot is written by exactly one worker thread (on failure) and read
  // by the collector after a queue reported done; the lock makes the
  // cross-thread handoff explicit. Lock ordering: status_mu_ is a leaf.
  Mutex status_mu_;
  std::vector<Status> statuses_ GUARDED_BY(status_mu_);
  std::vector<std::unique_ptr<ExecContext>> worker_ctxs_;
  std::vector<std::unique_ptr<BoundedBatchQueue>> queues_;
  std::vector<std::optional<TupleBatch>> heads_;
  std::vector<size_t> head_pos_;
  std::vector<bool> done_;
  // Top-level field indexes + direction of the merge keys.
  std::vector<std::pair<int, bool>> key_idx_;
};

}  // namespace uload

#endif  // ULOAD_EXEC_EXCHANGE_H_
