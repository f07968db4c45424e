#include "engine/engine.h"

#include <algorithm>

#include "exec/physical.h"
#include "storage/columnar/columnar_format.h"
#include "verify/plan_verifier.h"

namespace uload {

Engine::Engine(Document doc) : Engine(std::move(doc), Options()) {}

Engine::Engine(Document doc, Options options)
    : doc_(std::move(doc)), options_(options) {
  summary_ = PathSummary::Build(&doc_);
  if (options_.backend == Options::Backend::kColumnar) {
    columnar_ = ColumnarDocument::FromDocument(doc_);
    store_ = &columnar_;
  } else {
    store_ = &doc_;
  }
  ctx_ = catalog_.MakeEvalContext(store_);
  engine_memory_.set_limit(options_.engine_memory_limit_bytes);
}

Engine::Engine(ColumnarDocument store, PathSummary summary, Options options)
    : columnar_(std::move(store)),
      store_(&columnar_),
      summary_(std::move(summary)),
      options_(options) {
  options_.backend = Options::Backend::kColumnar;
  ctx_ = catalog_.MakeEvalContext(store_);
  engine_memory_.set_limit(options_.engine_memory_limit_bytes);
}

Result<std::unique_ptr<Engine>> Engine::Load(const std::string& path) {
  return Load(path, Options());
}

Result<std::unique_ptr<Engine>> Engine::Load(const std::string& path,
                                             Options options) {
  ULOAD_ASSIGN_OR_RETURN(LoadedColumnar lc, LoadColumnar(path));
  ULOAD_ASSIGN_OR_RETURN(PathSummary summary,
                         PathSummary::Deserialize(lc.summary_text));
  return std::unique_ptr<Engine>(
      new Engine(std::move(lc.document), std::move(summary), options));
}

Status Engine::Save(const std::string& path) const {
  if (const ColumnarDocument* col = columnar_store()) {
    return SaveColumnar(*col, summary_.Serialize(), path);
  }
  // Pointer backend: convert a throwaway columnar image for the write.
  ColumnarDocument tmp = ColumnarDocument::FromDocument(doc_);
  return SaveColumnar(tmp, summary_.Serialize(), path);
}

void Engine::SetOptions(Options options) {
  ClearPlanCache();
  options_ = std::move(options);
  engine_memory_.set_limit(options_.engine_memory_limit_bytes);
}

Status Engine::InstallModel(std::vector<NamedXam> model) {
  // Cached plans and the old context refer into the catalog replaced here.
  ClearPlanCache();
  catalog_ = Catalog();
  Status st = Status::Ok();
  for (size_t i = 0; i < model.size() && st.ok(); ++i) {
    st = catalog_.AddXam(model[i].name, std::move(model[i].xam), *store_);
  }
  std::vector<NamedXam> views;
  for (const auto& v : catalog_.views()) {
    views.push_back(NamedXam{v->name(), v->definition()});
  }
  rewriter_ = Rewriter(&summary_, std::move(views));
  ctx_ = catalog_.MakeEvalContext(store_);
  return st;
}

void Engine::ClearPlanCache() {
  MutexLock lock(&cache_mu_);
  cache_index_.clear();
  cache_lru_.clear();
  plan_cache_entries_.store(0, std::memory_order_relaxed);
}

Result<std::shared_ptr<const Engine::PreparedQuery>> Engine::PrepareCached(
    const std::string& query) {
  {
    MutexLock lock(&cache_mu_);
    auto it = cache_index_.find(query);
    if (it != cache_index_.end()) {
      cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
      plan_cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second->prepared;
    }
  }
  plan_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  ULOAD_ASSIGN_OR_RETURN(PreparedQuery p, Prepare(query));
  auto prepared = std::make_shared<const PreparedQuery>(std::move(p));
  // Declared before the lock, so an evicted plan is freed after unlocking.
  std::shared_ptr<const PreparedQuery> evicted;
  MutexLock lock(&cache_mu_);
  if (cache_index_.find(query) != cache_index_.end()) return prepared;
  cache_lru_.push_front(CacheEntry{query, prepared});
  cache_index_.emplace(cache_lru_.front().text, cache_lru_.begin());
  if (cache_lru_.size() > kPlanCacheCapacity) {
    evicted = std::move(cache_lru_.back().prepared);
    cache_index_.erase(cache_lru_.back().text);
    cache_lru_.pop_back();
  }
  plan_cache_entries_.store(static_cast<int64_t>(cache_lru_.size()),
                            std::memory_order_relaxed);
  return prepared;
}

Engine::QueryOptions Engine::EffectiveQueryOptions() const {
  QueryOptions q;
  q.timeout_ms = options_.timeout_ms;
  q.memory_limit_bytes = options_.memory_limit_bytes;
  q.batch_size = options_.batch_size;
  q.control = options_.control;
  return q;
}

std::shared_ptr<QueryControl> Engine::BeginQuery(ExecContext* exec,
                                                 MemoryTracker* query_mem,
                                                 const QueryOptions& q) {
  exec->set_verify_plans(options_.verify);
  exec->set_memory_tracker(query_mem);
  exec->set_fault(options_.fault);
  std::shared_ptr<QueryControl> control =
      q.control != nullptr ? q.control : std::make_shared<QueryControl>();
  if (q.timeout_ms > 0) {
    // Earliest deadline wins: an admission ticket may already carry the
    // admit-time budget on its control.
    int64_t candidate = QueryControl::DeadlineAfterMs(q.timeout_ms);
    int64_t existing = control->deadline_ns();
    if (existing == 0 || candidate < existing) {
      control->set_deadline_ns(candidate);
    }
  } else if (q.timeout_ms < 0) {
    // Testing: an already-expired deadline trips the very first check.
    control->set_deadline_ns(1);
  }
  exec->set_control(control);
  MutexLock lock(&mu_);
  inflight_.push_back(control);
  return control;
}

void Engine::RemoveInflightLocked(
    const std::shared_ptr<QueryControl>& control) {
  inflight_.erase(std::remove(inflight_.begin(), inflight_.end(), control),
                  inflight_.end());
}

void Engine::EndQuery(const std::shared_ptr<QueryControl>& control,
                      const ExecContext* executed) {
  // Snapshot outside mu_: the context's registry lock is never nested
  // inside the engine lock (mu_ stays a leaf in the lock order).
  std::deque<OperatorMetrics> snapshot;
  if (executed != nullptr) snapshot = executed->MetricsSnapshot();
  MutexLock lock(&mu_);
  RemoveInflightLocked(control);
  if (executed != nullptr) last_metrics_ = std::move(snapshot);
}

std::deque<OperatorMetrics> Engine::LastQueryMetrics() const {
  MutexLock lock(&mu_);
  return last_metrics_;
}

int64_t Engine::LastQueryTotalTuples() const {
  MutexLock lock(&mu_);
  int64_t total = 0;
  for (const OperatorMetrics& m : last_metrics_) total += m.tuples_produced;
  return total;
}

void Engine::Cancel() {
  MutexLock lock(&mu_);
  for (const std::shared_ptr<QueryControl>& c : inflight_) c->Cancel();
}

Result<Engine::PreparedQuery> Engine::Prepare(
    const std::string& query) const {
  PreparedQuery p;
  ULOAD_ASSIGN_OR_RETURN(
      p.rewrite, QueryRewriter::Rewrite(rewriter_, query, options_.rewrite));
  ULOAD_ASSIGN_OR_RETURN(p.plan, QueryRewriter::BuildPlan(p.rewrite));
  p.ctx = &ctx_;
  // Verify-before-execute: prove the combined plan schema-consistent and the
  // template's bindings resolvable before a single tuple flows. The compiled
  // physical tree is re-verified inside CompilePhysicalPlan.
  if (options_.verify) {
    ULOAD_ASSIGN_OR_RETURN(SchemaPtr root_schema,
                           VerifyLogicalPlan(*p.plan, *p.ctx));
    ULOAD_RETURN_NOT_OK(
        VerifyTemplate(p.rewrite.translation.templ, *root_schema));
  }
  return p;
}

Result<Engine::Explanation> Engine::Drive(const PreparedQuery& prepared,
                                          const QueryOptions& q, Mode mode) {
  // Private per-query context + governor: concurrent queries on one engine
  // share nothing but the document, the catalog, and the engine tracker.
  ExecContext exec(q.batch_size != 0 ? q.batch_size : options_.batch_size);
  MemoryTracker query_mem("query", q.memory_limit_bytes, &engine_memory_);
  std::shared_ptr<QueryControl> control = BeginQuery(&exec, &query_mem, q);
  Explanation out;
  Result<PhysicalPtr> root =
      CompilePhysicalPlan(prepared.plan, *prepared.ctx, &exec);
  Status s = root.status();
  if (root.ok() && mode == Mode::kExplain) {
    out.physical = (*root)->Describe();
  } else if (root.ok()) {
    const XmlTemplate& templ = prepared.rewrite.translation.templ;
    const Schema& schema = *(*root)->schema();
    s = DrainPhysical(root->get(), [&](TupleBatch& batch) {
      for (const Tuple& t : batch.tuples()) {
        ULOAD_RETURN_NOT_OK(
            ApplyTemplateToTuple(templ, schema, t, &out.result));
      }
      return Status::Ok();
    });
    if (mode == Mode::kAnalyze) out.physical = (*root)->DescribeAnalyze();
  }
  EndQuery(control, mode == Mode::kExplain ? nullptr : &exec);
  ULOAD_RETURN_NOT_OK(s);
  if (mode != Mode::kRun) out.logical = prepared.plan->ToString();
  return out;
}

Result<std::string> Engine::Execute(const PreparedQuery& prepared,
                                    const QueryOptions& q) {
  ULOAD_ASSIGN_OR_RETURN(Explanation out, Drive(prepared, q, Mode::kRun));
  return std::move(out.result);
}

Result<std::string> Engine::Run(const std::string& query) {
  return Run(query, EffectiveQueryOptions());
}

Result<std::string> Engine::Run(const std::string& query,
                                const QueryOptions& q) {
  ULOAD_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> prepared,
                         PrepareCached(query));
  return Execute(*prepared, q);
}

Result<Engine::Explanation> Engine::Explain(const std::string& query) {
  return Explain(query, EffectiveQueryOptions());
}

Result<Engine::Explanation> Engine::Explain(const std::string& query,
                                            const QueryOptions& q) {
  ULOAD_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> prepared,
                         PrepareCached(query));
  return Drive(*prepared, q, Mode::kExplain);
}

Result<Engine::Explanation> Engine::ExplainAnalyze(const std::string& query) {
  return ExplainAnalyze(query, EffectiveQueryOptions());
}

Result<Engine::Explanation> Engine::ExplainAnalyze(const std::string& query,
                                                   const QueryOptions& q) {
  ULOAD_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> prepared,
                         PrepareCached(query));
  return Drive(*prepared, q, Mode::kAnalyze);
}

}  // namespace uload
