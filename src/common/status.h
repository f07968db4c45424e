// Status and Result<T>: lightweight error-handling primitives in the style of
// Apache Arrow / RocksDB. Public APIs that can fail return Status or
// Result<T> instead of throwing; exceptions never cross library boundaries.
#ifndef ULOAD_COMMON_STATUS_H_
#define ULOAD_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace uload {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kNotFound,
  kNotImplemented,
  kTypeError,
  kInternal,
  kCancelled,          // query cancelled cooperatively (QueryControl)
  kDeadlineExceeded,   // per-query deadline/timeout elapsed
  kResourceExhausted,  // memory budget exceeded (MemoryTracker)
};

// Value-type status. Ok() carries no allocation; errors carry a message.
// [[nodiscard]] at class scope: a dropped Status is a swallowed error, so
// every discarding call site warns under GCC and clang alike.
class [[nodiscard]] Status {
 public:
  Status() = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Result<T> is either a T or an error Status. Modeled after arrow::Result.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_ = Status::Ok();
};

// Propagates a non-OK Status out of the current function.
#define ULOAD_RETURN_NOT_OK(expr)            \
  do {                                       \
    ::uload::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (0)

// Assigns a Result's value to `lhs` or propagates its error Status.
#define ULOAD_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value();

#define ULOAD_ASSIGN_OR_RETURN(lhs, rexpr) \
  ULOAD_ASSIGN_OR_RETURN_IMPL(             \
      ULOAD_CONCAT_(_uload_result_, __COUNTER__), lhs, rexpr)

#define ULOAD_CONCAT_INNER_(a, b) a##b
#define ULOAD_CONCAT_(a, b) ULOAD_CONCAT_INNER_(a, b)

}  // namespace uload

#endif  // ULOAD_COMMON_STATUS_H_
