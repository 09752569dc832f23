#ifndef MOVD_UTIL_STATUS_H_
#define MOVD_UTIL_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace movd {

/// The one terminal-state vocabulary shared by every subsystem (solver
/// entry points, storage, serving). Before this enum the repo had three
/// ad-hoc conventions — bool + error out-param (SaveCache, the
/// request-line parser), optional<T> sentinels (LoadMovd), and per-layer
/// enums (MolqStatus, ServeStatus); they are all expressed in this one
/// code space now. `MolqStatus` is an alias of this enum.
enum class StatusCode : uint8_t {
  kOk = 0,
  kCancelled,         ///< a CancelToken fired (cooperative deadline)
  kInvalidArgument,   ///< malformed request / bad parameter
  kDeadlineExceeded,  ///< a request deadline fired; no answer produced
  kNotFound,          ///< named entity (dataset, file, key) does not exist
  kDataLoss,          ///< stored data failed validation (corrupt/truncated)
  kIoError,           ///< the OS refused a read/write/open
  kInternal,          ///< invariant violation on our side
  kOverloaded,        ///< admission control shed the request (serve)
  kUnsupportedVerb,   ///< serve verb unknown to this protocol version
};

/// Canonical wire name of a code ("OK", "DEADLINE_EXCEEDED",
/// "INVALID_REQUEST", ...). The serve line protocol emits these, so the
/// historical serve spellings are the canonical ones where they overlap.
const char* StatusCodeName(StatusCode code);

/// A status code plus a human-readable detail message (empty when kOk).
/// Cheap to pass by value; the common OK path allocates nothing.
class [[nodiscard]] Status {
 public:
  /// OK.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status UnsupportedVerb(std::string msg) {
    return Status(StatusCode::kUnsupportedVerb, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  explicit operator bool() const { return ok(); }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "DATA_LOSS: truncated record 7".
  std::string ToString() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value or the non-OK status explaining why there is none.
/// `has_value()` / `operator*` / `operator->` mirror std::optional so the
/// optional-returning call sites this type replaced keep their shape.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from a value (the success path reads like `return movd;`).
  StatusOr(T value) : value_(std::move(value)) {}

  /// Implicit from a non-OK status (`return Status::DataLoss(...);`).
  StatusOr(Status status) : status_(std::move(status)) {
    MOVD_CHECK_MSG(!status_.ok(),
                   "StatusOr built from a status needs a non-OK status");
  }

  bool ok() const { return value_.has_value(); }
  bool has_value() const { return ok(); }
  explicit operator bool() const { return ok(); }

  /// kOk when a value is present.
  const Status& status() const { return status_; }

  const T& value() const& {
    MOVD_CHECK_MSG(ok(), "StatusOr::value() called without a value");
    return *value_;
  }
  T& value() & {
    MOVD_CHECK_MSG(ok(), "StatusOr::value() called without a value");
    return *value_;
  }
  T&& value() && {
    MOVD_CHECK_MSG(ok(), "StatusOr::value() called without a value");
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // kOk iff value_ holds a value
  std::optional<T> value_;
};

}  // namespace movd

#endif  // MOVD_UTIL_STATUS_H_
