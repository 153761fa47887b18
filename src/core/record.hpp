#pragma once

#include "core/snapshot_fields.hpp"

namespace tora::core {

/// One completed-task observation for a single resource dimension.
///
/// `value` is the task's peak consumption of that resource; `significance`
/// weights the record when computing bucket probabilities and weighted means
/// (paper §IV-A). Higher significance means more recent / more relevant; the
/// paper (and this library's TaskAllocator) uses the per-category submission
/// index, so later tasks dominate after a phase change.
struct Record {
  double value = 0.0;
  double significance = 1.0;

  friend bool operator==(const Record&, const Record&) = default;

  /// Snapshot fields: both must be values observe() accepts.
  static constexpr auto fields() {
    using snapshot::field, snapshot::kNonNegative;
    return snapshot::section(
        "Record", field("value", &Record::value, kNonNegative),
        field("significance", &Record::significance, kNonNegative));
  }
};

}  // namespace tora::core
