// Lightweight Status / Result<T> error propagation.
//
// Library code does not throw (Google style); fallible operations -- file
// I/O, parsing, configuration validation -- return Status or Result<T>.
// Programmer errors (broken invariants) use CHECK from util/logging.h.

#ifndef TRISTREAM_UTIL_STATUS_H_
#define TRISTREAM_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace tristream {

/// Error category, mirroring the subset of canonical codes this library
/// actually produces.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIoError,
  kCorruptData,
  // A resource that may legitimately not exist yet (e.g. no checkpoint has
  // been written). Callers typically treat this as "start fresh", not as a
  // hard failure.
  kUnavailable,
  // An operation ran out of time waiting on a peer (e.g. serve's receive
  // idle timeout fired on a connection). Distinct from kIoError: the transport is
  // healthy but silent, so the caller may reclaim the slot or retry.
  kDeadlineExceeded,
};

/// Human-readable name of a StatusCode (e.g. "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// Stable machine-parseable token of a StatusCode (e.g.
/// "INVALID_ARGUMENT"). These are wire-format constants -- TRIE
/// diagnostics and CLI error lines carry them so tools can classify
/// failures without parsing free text; tests pin them against drift.
const char* StatusCodeToken(StatusCode code);

/// Inverse of StatusCodeToken. False when `token` matches no code.
bool StatusCodeFromToken(std::string_view token, StatusCode* code);

/// Result of a fallible operation: a code plus a diagnostic message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status CorruptData(std::string msg) {
    return Status(StatusCode::kCorruptData, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Either a value or an error Status. Minimal StatusOr-style wrapper.
template <typename T>
class Result {
 public:
  /// Implicit from a value: makes `return value;` work in functions
  /// returning Result<T>.
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from an error status. Must not be OK.
  Result(Status status) : data_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(data_); }

  /// The error status; Status::Ok() when a value is held.
  Status status() const {
    if (ok()) return Status::Ok();
    return std::get<Status>(data_);
  }

  /// The held value. Requires ok().
  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> data_;
};

/// Propagates a non-OK status to the caller.
#define TRISTREAM_RETURN_IF_ERROR(expr)            \
  do {                                             \
    ::tristream::Status _st = (expr);              \
    if (!_st.ok()) return _st;                     \
  } while (0)

/// Evaluates `expr` (a Result<T>), propagating its error status to the
/// caller or assigning the unwrapped value to `lhs`. `lhs` may declare a
/// new variable or assign to an existing one:
///
///   TRISTREAM_ASSIGN_OR_RETURN(auto blob, ReadFile(path));
///   TRISTREAM_ASSIGN_OR_RETURN(info, DecodeCheckpoint(blob, est));
#define TRISTREAM_ASSIGN_OR_RETURN(lhs, expr)                             \
  TRISTREAM_ASSIGN_OR_RETURN_IMPL_(                                       \
      TRISTREAM_STATUS_CONCAT_(tristream_result_, __LINE__), lhs, expr)
#define TRISTREAM_ASSIGN_OR_RETURN_IMPL_(result, lhs, expr)               \
  auto result = (expr);                                                   \
  if (!result.ok()) return result.status();                               \
  lhs = std::move(result).value()
#define TRISTREAM_STATUS_CONCAT_(a, b) TRISTREAM_STATUS_CONCAT_IMPL_(a, b)
#define TRISTREAM_STATUS_CONCAT_IMPL_(a, b) a##b

}  // namespace tristream

#endif  // TRISTREAM_UTIL_STATUS_H_
