// The engine facade (thesis Fig. 5.1 as a serving stack): one object owning
// the document, its path summary, the catalog of materialized XAMs, and the
// execution context, behind a three-call surface —
//   Run(query)             rewrite + streaming physical execution → XML
//   Explain(query)         combined logical plan + physical operator tree
//   ExplainAnalyze(query)  Run, returning the plan annotated with the
//                          per-operator runtime counters it just produced
// All three run one pipeline. They take the query's PreparedQuery (rewrite,
// combined plan, verification) from one plan-cache lookup keyed by the exact
// query text: a miss runs Prepare and caches its success, a hit reuses the
// cached plan and skips parse, translate, rewrite, plan and verify. Then
// comes a private governed ExecContext (BeginQuery), compilation, which
// re-verifies the physical tree on every call, and — for Run and
// ExplainAnalyze — the shared drain loop (DrainPhysical), which feeds the
// tagging template batch by batch with no intermediate materialized
// relation and always closes the operator tree. InstallModel and SetOptions
// empty the cache (DESIGN.md §16).
//
// Resource governance (DESIGN.md §8): every Run/ExplainAnalyze executes on a
// private ExecContext with a fresh QueryControl (deadline = now + timeout)
// and a per-query MemoryTracker parented to the engine-wide tracker, so
// queries can run concurrently on one engine, each governed independently.
// Cancel() trips every in-flight query; each aborts at its next batch
// boundary with kCancelled and returns its memory charges.
#ifndef ULOAD_ENGINE_ENGINE_H_
#define ULOAD_ENGINE_ENGINE_H_

#include <atomic>
#include <deque>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "exec/exec_context.h"
#include "rewrite/query_rewriter.h"
#include "storage/columnar/columnar_document.h"
#include "storage/storage_models.h"

namespace uload {

class Engine {
 public:
  struct Options {
    // Physical document representation behind the storage-neutral
    // DocumentStore interface. kPointer keeps the parsed node tree;
    // kColumnar converts it into the dictionary-encoded column store
    // (storage/columnar/) — qualifying views then run as virtual extents
    // and the engine becomes persistable via Save()/Load(). Query results
    // are byte-identical across backends.
    enum class Backend { kPointer, kColumnar };
    Backend backend = Backend::kPointer;
    // Fill target of every TupleBatch on the serving path.
    size_t batch_size = TupleBatch::kDefaultCapacity;
    // Inert: every plan runs serially on the calling thread. Kept only
    // because the benchmark's replay of Engine::Run (perfbench/trace.cc)
    // still reads it.
    size_t thread_budget = 1;
    // Statically verify every plan before execution (verify/plan_verifier.h):
    // logical schema/type checking, template binding checks, and physical
    // order/placement soundness. A malformed plan surfaces as a Status
    // instead of undefined behavior mid-execution.
    bool verify = true;
    // Wall-clock budget of one Run/ExplainAnalyze call in milliseconds;
    // 0 = unlimited. An exceeded deadline aborts the query at the next batch
    // boundary with kDeadlineExceeded. Negative = already expired (testing:
    // the very first check trips, deterministically).
    int64_t timeout_ms = 0;
    // Per-query memory budget in bytes (0 = unlimited): the bytes held by
    // one query's materializing operators and streamed batches. An
    // exceeded budget aborts that query with kResourceExhausted; concurrent
    // queries under their own budgets are unaffected.
    int64_t memory_limit_bytes = 0;
    // Engine-wide budget shared by all concurrent queries (0 = unlimited);
    // the per-query trackers parent to it.
    int64_t engine_memory_limit_bytes = 0;
    // Testing hook: an externally owned cancellation handle to install on
    // the next queries instead of a fresh one — lets a test observe
    // QueryControl::checks() or arm CancelAfterChecks() for deterministic
    // mid-query cancellation. Null (the default) = fresh handle per query.
    std::shared_ptr<QueryControl> control;
    // Fault injection for robustness testing (disabled by default); see
    // FaultSpec in exec/exec_context.h.
    FaultSpec fault;
    // Inert: nothing reads it, and every plan compiles to fused pipelines
    // (exec/fusion.h). Kept only because the benchmark's replay of
    // Engine::Run (perfbench/trace.cc) still assigns it.
    bool fuse = true;
    RewriteOptions rewrite;
  };

  // Per-call overrides for one Run/Explain/ExplainAnalyze. The serving
  // layer (src/server/) assigns these at admission time — deadline and
  // memory budget per admitted query — without touching the engine-wide
  // Options (SetOptions requires no queries in flight; QueryOptions is the
  // concurrency-safe per-query path).
  struct QueryOptions {
    // Wall-clock budget in ms; 0 = unlimited, negative = already expired
    // (testing). Ignored when `control` arrives with an earlier deadline.
    int64_t timeout_ms = 0;
    // Per-query memory budget in bytes; 0 = unlimited.
    int64_t memory_limit_bytes = 0;
    // Batch fill target for this query; 0 = the engine option's size.
    size_t batch_size = 0;
    // Externally owned cancellation handle (e.g. an admission ticket's).
    // May arrive with a deadline preset; the effective deadline is the
    // earlier of that and now + timeout_ms. Null = fresh handle.
    std::shared_ptr<QueryControl> control;
  };

  explicit Engine(Document doc);
  Engine(Document doc, Options options);

  // Restores an engine from a file written by Save(): the column store is
  // mmapped and validated, its structural labels derived from the parent
  // column, and the summary deserialized — no XML re-parse. The loaded
  // engine always runs the columnar backend (`options.backend` is ignored);
  // install a storage model before querying, as with a fresh engine.
  static Result<std::unique_ptr<Engine>> Load(const std::string& path);
  static Result<std::unique_ptr<Engine>> Load(const std::string& path,
                                              Options options);

  // Persists the document as a columnar image (stored columns +
  // dictionaries + path summary, versioned and checksummed) to `path`. Works
  // from either backend; the pointer backend converts on the fly.
  Status Save(const std::string& path) const;

  // Replaces the engine options. Governor settings (timeout, budgets, fault
  // spec, control override) are read per query at Begin, so changed options
  // apply to the next query. Empties the plan cache, since the rewrite
  // options and the verify switch shape every prepared query. Call with no
  // queries in flight.
  void SetOptions(Options options) EXCLUDES(cache_mu_);
  const Options& options() const { return options_; }

  // Replaces the installed storage model: materializes every XAM of `model`
  // over the document into a fresh catalog, then rebuilds the rewriter and
  // the evaluation context over it and empties the plan cache. A failed
  // install keeps the views added before the failure, and the rewriter and
  // context follow them.
  Status InstallModel(std::vector<NamedXam> model) EXCLUDES(cache_mu_);

  // Rewrites `query` over the installed views and streams the combined plan
  // through the physical executor into serialized XML. Thread-safe against
  // concurrent Run/ExplainAnalyze/Explain/Cancel/Save on the same engine
  // (full matrix in DESIGN.md §10); InstallModel/SetOptions still require
  // no queries in flight.
  [[nodiscard]] Result<std::string> Run(const std::string& query);
  // As above with per-call governor overrides (admission-control path).
  [[nodiscard]] Result<std::string> Run(const std::string& query,
                                        const QueryOptions& q);

  // The front half of every query: `query` rewritten over the installed
  // views and the combined logical plan, with plan and template verified
  // when Options::verify is set. `ctx` is the engine's evaluation context,
  // built once per catalog and shared by every prepared query. A prepared
  // query refers into the catalog and the store, so it stays valid until
  // the next InstallModel.
  struct PreparedQuery {
    QueryRewriteResult rewrite;
    PlanPtr plan;
    const EvalContext* ctx = nullptr;
  };
  // Always the cold path: parses, translates, rewrites, plans and verifies,
  // and neither reads nor fills the plan cache, so benches that time it
  // time the whole front half.
  Result<PreparedQuery> Prepare(const std::string& query) const;
  // The back half of Run: compiles `prepared` on a private governed context
  // and streams it through the tagging template. Run(query, q) is the
  // plan-cache lookup (Prepare on a miss) followed by Execute(prepared, q);
  // benches call the halves separately to time execution without the
  // rewrite.
  [[nodiscard]] Result<std::string> Execute(const PreparedQuery& prepared,
                                            const QueryOptions& q);

  // Cancels every in-flight Run/ExplainAnalyze: each aborts at its next
  // batch boundary with kCancelled (clean Status, budget trackers back to
  // zero). Queries started after this call are unaffected. Thread-safe.
  void Cancel() EXCLUDES(mu_);

  struct Explanation {
    std::string logical;   // combined logical plan rendering
    std::string physical;  // physical tree; ExplainAnalyze annotates it
                           // with the runtime counters
    std::string result;    // serialized XML (ExplainAnalyze only)
  };
  // Compiles without executing. The QueryOptions overload compiles under
  // the same per-call batch size Run would use, so it shows the plan that
  // Run(query, q) executes.
  Result<Explanation> Explain(const std::string& query);
  Result<Explanation> Explain(const std::string& query, const QueryOptions& q);
  // Executes, then renders the physical tree with per-operator counters.
  Result<Explanation> ExplainAnalyze(const std::string& query);
  Result<Explanation> ExplainAnalyze(const std::string& query,
                                     const QueryOptions& q);

  // The active document store — what every view and query runs against.
  const DocumentStore& store() const { return *store_; }
  // Non-null when the columnar backend is active.
  const ColumnarDocument* columnar_store() const {
    return store_ == &columnar_ ? &columnar_ : nullptr;
  }
  // The pointer-tree document. Empty for engines restored via Load(), which
  // carry only the columnar image — use store() for storage-neutral access.
  const Document& document() const { return doc_; }
  const PathSummary& summary() const { return summary_; }
  const Catalog& catalog() const { return catalog_; }
  // Per-operator runtime counters of the most recent completed
  // Run/ExplainAnalyze, as a snapshot taken under the engine lock — safe to
  // call while queries are in flight (each query's counters live on its
  // private ExecContext until EndQuery publishes them here; readers never
  // share slots with a running query).
  std::deque<OperatorMetrics> LastQueryMetrics() const EXCLUDES(mu_);
  // Sum of tuples_produced over the last published counters.
  int64_t LastQueryTotalTuples() const EXCLUDES(mu_);
  // Engine-wide memory tracker (root of the per-query hierarchy). used()
  // returns to zero when no query is in flight — aborted ones included.
  const MemoryTracker& memory() const { return engine_memory_; }

  // Most prepared queries the plan cache keeps; the least recently used
  // entry goes first. An entry for one of perfbench's adhoc texts takes
  // about 7.5 KiB, its key and list node included, so a full cache of them
  // stays under half a MiB.
  static constexpr size_t kPlanCacheCapacity = 48;
  // Plan-cache counters: lookups answered from the cache, lookups that ran
  // Prepare (failed ones included), and the entries held now. Thread-safe.
  int64_t plan_cache_hits() const {
    return plan_cache_hits_.load(std::memory_order_relaxed);
  }
  int64_t plan_cache_misses() const {
    return plan_cache_misses_.load(std::memory_order_relaxed);
  }
  int64_t plan_cache_entries() const {
    return plan_cache_entries_.load(std::memory_order_relaxed);
  }

 private:
  // Load() path: adopt a restored column store + deserialized summary.
  Engine(ColumnarDocument store, PathSummary summary, Options options);

  // The prepared query Run, Explain and ExplainAnalyze execute: the cached
  // entry for `query`'s exact text, or Prepare's result, cached when it
  // succeeds. cache_mu_ is never held while preparing; when two threads
  // miss on one text, both prepare and the first insert wins.
  Result<std::shared_ptr<const PreparedQuery>> PrepareCached(
      const std::string& query) EXCLUDES(cache_mu_);
  void ClearPlanCache() EXCLUDES(cache_mu_);

  // What the shared pipeline does after compiling: render the tree
  // (Explain), drain it into XML (Run), or both (ExplainAnalyze).
  enum class Mode { kExplain, kRun, kAnalyze };
  Result<Explanation> Drive(const PreparedQuery& prepared,
                            const QueryOptions& q, Mode mode);
  // Per-call effective settings: engine Options with QueryOptions overrides
  // applied.
  QueryOptions EffectiveQueryOptions() const;
  // Installs the per-query governor state on `exec` (control with deadline,
  // tracker, fault spec) and registers the control as in-flight. Returns the
  // control for EndQuery.
  std::shared_ptr<QueryControl> BeginQuery(ExecContext* exec,
                                           MemoryTracker* query_mem,
                                           const QueryOptions& q)
      EXCLUDES(mu_);
  // Deregisters the control and, when the query executed (`executed`
  // non-null), publishes its counters as the engine's "most recent" metrics.
  void EndQuery(const std::shared_ptr<QueryControl>& control,
                const ExecContext* executed) EXCLUDES(mu_);
  // Unlinks one in-flight control (EndQuery's bookkeeping half).
  void RemoveInflightLocked(const std::shared_ptr<QueryControl>& control)
      REQUIRES(mu_);

  Document doc_;
  ColumnarDocument columnar_;
  // Points at doc_ or columnar_ per the active backend; set once in the
  // constructor, never reseated.
  const DocumentStore* store_ = nullptr;
  PathSummary summary_;
  Catalog catalog_;
  // Per-catalog: built over the empty catalog on construction, rebuilt by
  // every InstallModel.
  Rewriter rewriter_{&summary_, {}};
  EvalContext ctx_;
  Options options_;
  MemoryTracker engine_memory_{"engine"};
  // Guards the in-flight control set and the published metrics snapshot;
  // the capability annotations make the "which lock protects what" contract
  // machine-checked under clang (DESIGN.md §12). Lock ordering: mu_ is a
  // leaf — nothing is acquired while it is held.
  mutable Mutex mu_;
  std::vector<std::shared_ptr<QueryControl>> inflight_ GUARDED_BY(mu_);
  // Published counters of the most recently finished query. A plain value
  // snapshot (not a shared ExecContext): concurrent Runs each collect on a
  // private context and copy here under mu_, so no running operator tree
  // ever shares metric slots with a reader or another query.
  std::deque<OperatorMetrics> last_metrics_ GUARDED_BY(mu_);

  // The plan cache: an LRU list, most recent first, indexed by query text.
  // The index keys view the texts held in the list nodes. Lock ordering:
  // cache_mu_ is a leaf, and no query is prepared or run while it is held.
  struct CacheEntry {
    std::string text;
    std::shared_ptr<const PreparedQuery> prepared;
  };
  mutable Mutex cache_mu_;
  std::list<CacheEntry> cache_lru_ GUARDED_BY(cache_mu_);
  std::unordered_map<std::string_view, std::list<CacheEntry>::iterator>
      cache_index_ GUARDED_BY(cache_mu_);
  std::atomic<int64_t> plan_cache_hits_{0};
  std::atomic<int64_t> plan_cache_misses_{0};
  std::atomic<int64_t> plan_cache_entries_{0};
};

}  // namespace uload

#endif  // ULOAD_ENGINE_ENGINE_H_
