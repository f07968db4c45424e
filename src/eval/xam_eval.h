// Algebraic XAM semantics over a document (thesis §2.2.2).
//
// [[χ]]_d is computed by a structural-join tree isomorphic to the XAM
// (Def. 2.2.4): each node contributes its tag-derived base collection
// filtered by its value formula; edges contribute structural
// (semi/outer/nest) joins; the final projection Π_χ retains exactly the
// specified attributes (Def. 2.2.5), the ones Xam::StoredAttrs() lists in
// the layout every catalog view shares. The tree is a logical plan compiled
// and run by the streaming engine (exec/physical.h), the same executor
// queries use. R-marked XAMs are evaluated against a bindings list via
// nested tuple intersection (Def. 2.2.6).
#ifndef ULOAD_EVAL_XAM_EVAL_H_
#define ULOAD_EVAL_XAM_EVAL_H_

#include "algebra/relation.h"
#include "common/status.h"
#include "exec/order_descriptor.h"
#include "xam/xam.h"
#include "xml/document_store.h"

namespace uload {

// Evaluates a XAM without R markers (markers, if present, are ignored: this
// computes [[χ⁰]]_d). The result's schema is xam.ViewSchema(), projected
// through xam.StoredAttrs(): semijoined subtrees store nothing. Tuples follow
// document order, lexicographically over the nodes that make up the top
// level, whether or not the XAM is ordered.
Result<NestedRelation> EvaluateXam(const Xam& xam, const DocumentStore& doc);

// The order EvaluateXam's extent is in, read off the definition alone: the
// <n>_ID columns of the leading top-level nodes that store an identifier,
// stopping at the first that stores none. A leading chain of inner `/`
// edges from ⊤ (a path or inlined view's steps) is in the document order of
// its deepest node that stores an ID, so every chain node that stores one
// is declared, in chain order, whether or not the nodes above it do; later
// top-level nodes follow only when the chain's last node stores an ID.
// Every identifier kind is materialized in document order (MakeNodeId), and
// EvaluateXam sorts by the same top-level nodes, so this is the order every
// view over `xam` declares, stored or virtual (MaterializedView::order()).
OrderDescriptor ExtentOrder(const Xam& xam);

// Def. 2.2.6: the semantics of an access-restricted XAM given bindings.
// `bindings`' schema must use the same attribute names as the view schema,
// restricted to R-marked attributes.
Result<NestedRelation> EvaluateXamWithBindings(const Xam& xam,
                                               const DocumentStore& doc,
                                               const NestedRelation& bindings);

// The schema bindings for `xam` must have: its R-marked attributes, nested
// the same way as in ViewSchema().
SchemaPtr BindingSchema(const Xam& xam);

}  // namespace uload

#endif  // ULOAD_EVAL_XAM_EVAL_H_
