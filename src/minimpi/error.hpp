// Errors raised by the minimpi runtime.
#pragma once

#include "support/error.hpp"

namespace dipdc::minimpi {

/// Base class for all minimpi errors (bad arguments, truncation, ...).
class MpiError : public support::Error {
 public:
  using support::Error::Error;
};

/// Thrown in *every* blocked rank when the runtime proves that no rank can
/// make progress (e.g. a ring of rendezvous sends — the deadlock scenario
/// Module 1 teaches).  The message names each blocked rank and the
/// operation it is stuck in.
class DeadlockError : public MpiError {
 public:
  using MpiError::MpiError;
};

/// Thrown in blocked ranks when another rank aborted with an exception, so
/// that all threads unwind and join instead of hanging.
class AbortError : public MpiError {
 public:
  using MpiError::MpiError;
};

/// Thrown when a rank dies (fault-injection kill): the dying rank throws it
/// from the primitive it was killed in, and every surviving rank that can
/// no longer make progress receives it instead of hanging.  The message
/// names the dead rank.  Subclasses AbortError because survivors are
/// unblocked by another rank's failure, exactly like the abort path.
class RankFailedError : public AbortError {
 public:
  using AbortError::AbortError;
};

namespace detail {

/// Argument check of the collective implementations: throws MpiError(what)
/// unless `ok`.
inline void require(bool ok, const char* what) {
  if (!ok) throw MpiError(what);
}

}  // namespace detail

}  // namespace dipdc::minimpi
