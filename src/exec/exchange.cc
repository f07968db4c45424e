#include "exec/exchange.h"

#include <utility>

#include "opt/cost.h"

namespace uload {

namespace {
// Rough bytes-per-slot estimate for queue sizing before any data flows:
// governed queries size their exchange queues against the budget using an
// assumed 128 bytes per tuple.
int64_t EstimatedBatchBytes(size_t batch_size) {
  return static_cast<int64_t>(batch_size) * 128;
}
}  // namespace

// --- BoundedBatchQueue -------------------------------------------------------

BoundedBatchQueue::BoundedBatchQueue(size_t capacity, int producers)
    : capacity_(capacity == 0 ? 1 : capacity), producers_left_(producers) {}

// The waits are explicit predicate loops (not wait(lock, pred) lambdas) so
// the guarded reads in each condition stay visible to the thread-safety
// analysis — a lambda body is analyzed as a separate, unannotated function.
bool BoundedBatchQueue::Push(TupleBatch batch) {
  MutexLock lock(&mu_);
  while (!shutdown_ && queue_.size() >= capacity_) can_push_.Wait(&mu_);
  if (shutdown_) return false;
  queue_.push_back(std::move(batch));
  can_pop_.NotifyOne();
  return true;
}

void BoundedBatchQueue::ProducerDone() {
  MutexLock lock(&mu_);
  if (--producers_left_ <= 0) can_pop_.NotifyAll();
}

std::optional<TupleBatch> BoundedBatchQueue::Pop() {
  MutexLock lock(&mu_);
  while (!shutdown_ && queue_.empty() && producers_left_ > 0) {
    can_pop_.Wait(&mu_);
  }
  if (!queue_.empty()) {
    TupleBatch b = std::move(queue_.front());
    queue_.pop_front();
    can_push_.NotifyOne();
    return std::optional<TupleBatch>(std::move(b));
  }
  return std::nullopt;
}

void BoundedBatchQueue::Shutdown() {
  MutexLock lock(&mu_);
  shutdown_ = true;
  can_push_.NotifyAll();
  can_pop_.NotifyAll();
}

// --- ExchangeMergePhys -------------------------------------------------------

ExchangeMergePhys::ExchangeMergePhys(std::vector<PhysicalPtr> workers)
    : workers_(std::move(workers)) {
  schema_ = workers_.front()->schema();
  order_ = workers_.front()->order();
  MutexLock lock(&status_mu_);
  statuses_.assign(workers_.size(), Status::Ok());
}

ExchangeMergePhys::~ExchangeMergePhys() { StopWorkers(); }

std::string ExchangeMergePhys::label() const {
  return "ExchangeMerge_phi" + order_.ToString() +
         "(workers=" + std::to_string(worker_count()) + ")";
}

std::vector<PhysicalOperator*> ExchangeMergePhys::children() const {
  return {workers_.front().get()};
}

void ExchangeMergePhys::BindChildren(ExecContext* ctx) {
  // Worker 0 is the template pipeline: it registers with the plan's context
  // so DescribeAnalyze() shows its slots. The other workers get private
  // contexts so no counter slot is shared across threads; ConfigureWorker
  // copies the governor state (cancellation handle, budget tracker, fault
  // spec) so every worker pipeline observes the same query controls.
  tracker_ = ctx->memory_tracker();
  workers_[0]->Bind(ctx);
  worker_ctxs_.clear();
  for (size_t i = 1; i < workers_.size(); ++i) {
    worker_ctxs_.push_back(std::make_unique<ExecContext>(ctx->batch_size()));
    ctx->ConfigureWorker(worker_ctxs_.back().get());
    workers_[i]->Bind(worker_ctxs_.back().get());
  }
}

void ExchangeMergePhys::StartWorkers() {
  {
    MutexLock lock(&status_mu_);
    statuses_.assign(workers_.size(), Status::Ok());
  }
  threads_.clear();
  threads_.reserve(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    threads_.emplace_back([this, i] {
      PhysicalOperator* w = workers_[i].get();
      BoundedBatchQueue* q = queues_[i].get();
      Status s = w->Open();
      if (s.ok()) {
        for (;;) {
          Result<std::optional<TupleBatch>> r = w->NextBatch();
          if (!r.ok()) {
            s = r.status();
            break;
          }
          if (!r->has_value()) break;
          if ((*r)->empty()) continue;
          // Queue slots count toward the query budget while the batch sits
          // between producer and consumer; the Pop side releases the charge.
          int64_t bytes = 0;
          if (tracker_ != nullptr) {
            bytes = (*r)->ApproxBytes();
            Status cs = tracker_->Charge(bytes);
            if (!cs.ok()) {
              s = std::move(cs);
              break;
            }
          }
          if (!q->Push(std::move(**r))) {
            // Consumer (or a failed sibling) shut the queue down.
            if (tracker_ != nullptr) tracker_->Release(bytes);
            break;
          }
        }
      }
      w->Close();
      if (!s.ok()) {
        {
          MutexLock lock(&status_mu_);
          statuses_[i] = std::move(s);
        }
        // A failed worker (cancel, budget, injected fault) poisons every
        // queue: siblings blocked in Push() unblock and wind down, and the
        // collector stops pulling instead of running the query to the end.
        PoisonAllQueues();
      }
      q->ProducerDone();
    });
  }
}

void ExchangeMergePhys::PoisonAllQueues() {
  for (const std::unique_ptr<BoundedBatchQueue>& q : queues_) q->Shutdown();
}

void ExchangeMergePhys::StopWorkers() {
  PoisonAllQueues();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  // Batches queued but never consumed still carry budget charges; drain
  // them so an aborted query returns the tracker to zero. Every producer
  // has called ProducerDone() by now, so Pop() cannot block.
  if (tracker_ != nullptr) {
    for (const std::unique_ptr<BoundedBatchQueue>& q : queues_) {
      while (std::optional<TupleBatch> b = q->Pop()) {
        tracker_->Release(b->ApproxBytes());
      }
    }
  }
  // Fold workers 1..N-1 into worker 0's counter slots (and zero the
  // sources), so the template pipeline shows whole-exchange totals.
  for (size_t i = 1; i < workers_.size(); ++i) {
    workers_[0]->MergeMetricsFrom(*workers_[i]);
  }
}

Status ExchangeMergePhys::WorkerError() {
  MutexLock lock(&status_mu_);
  for (const Status& s : statuses_) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status ExchangeMergePhys::OpenImpl() {
  StopWorkers();  // re-open without an intervening Close()
  key_idx_.clear();
  for (const OrderKey& k : order_.keys()) {
    ULOAD_ASSIGN_OR_RETURN(AttrPath p, ResolveAttrPath(*schema_, k.attr));
    if (p.size() != 1) {
      return Status::NotImplemented("ExchangeMerge on nested order key '" +
                                    k.attr + "'");
    }
    key_idx_.emplace_back(p[0], k.ascending);
  }
  size_t n = worker_count();
  size_t cap = ExchangeQueueCapacity(
      n, tracker_ != nullptr ? tracker_->limit() : 0,
      EstimatedBatchBytes(batch_size()));
  queues_.clear();
  for (size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<BoundedBatchQueue>(cap, 1));
  }
  heads_.assign(n, std::nullopt);
  head_pos_.assign(n, 0);
  done_.assign(n, false);
  StartWorkers();
  return Status::Ok();
}

bool ExchangeMergePhys::EnsureHead(size_t i) {
  if (done_[i]) return false;
  for (;;) {
    std::optional<TupleBatch>& head = heads_[i];
    if (head.has_value() && head_pos_[i] < head->size()) return true;
    std::optional<TupleBatch> next = queues_[i]->Pop();
    if (!next.has_value()) {
      done_[i] = true;
      head = std::nullopt;
      return false;
    }
    if (tracker_ != nullptr) tracker_->Release(next->ApproxBytes());
    head = std::move(next);
    head_pos_[i] = 0;
  }
}

bool ExchangeMergePhys::KeyLess(const Tuple& ta, const Tuple& tb) const {
  for (const auto& [idx, asc] : key_idx_) {
    int c = AtomicValue::Compare(ta.fields[idx].atom(), tb.fields[idx].atom());
    if (c != 0) return asc ? c < 0 : c > 0;
  }
  // Equal keys compare not-less: the ascending scan in NextBatchImpl then
  // keeps the lower worker index, which together with contiguous range
  // partitioning reproduces the serial engine's tuple sequence.
  return false;
}

Result<std::optional<TupleBatch>> ExchangeMergePhys::NextBatchImpl() {
  TupleBatch out = NewBatch();
  while (!out.full()) {
    int best = -1;
    const Tuple* best_tuple = nullptr;
    for (size_t i = 0; i < worker_count(); ++i) {
      if (!EnsureHead(i)) continue;
      std::optional<TupleBatch>& head = heads_[i];
      if (!head.has_value()) continue;  // EnsureHead guarantees a value
      const Tuple& t = head->tuple(head_pos_[i]);
      if (best_tuple == nullptr || KeyLess(t, *best_tuple)) {
        best = static_cast<int>(i);
        best_tuple = &t;
      }
    }
    if (best < 0) break;
    size_t b = static_cast<size_t>(best);
    std::optional<TupleBatch>& head = heads_[b];
    if (!head.has_value()) break;  // unreachable: best came from EnsureHead
    out.Add(std::move(head->tuple(head_pos_[b]++)));
  }
  if (out.empty()) {
    ULOAD_RETURN_NOT_OK(WorkerError());
    return std::optional<TupleBatch>();
  }
  return std::optional<TupleBatch>(std::move(out));
}

void ExchangeMergePhys::CloseImpl() {
  StopWorkers();
  heads_.clear();
  head_pos_.clear();
  done_.clear();
}

}  // namespace uload
