#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/task_allocator.hpp"

namespace tora::core::recovery {

/// Binary allocator serialization for the crash-recovery snapshot. Unlike
/// the CSV checkpoint (core/checkpoint.hpp), which replays history and is
/// deliberately cross-policy, this capture is BIT-EXACT: alongside the
/// completion history it records each created policy instance's sampler
/// state (ResourcePolicy::sampler_state) and the created-category SET, so a
/// restore leaves every policy — and the factory's master Rng position —
/// exactly where the crashed allocator had them.
///
/// Restore protocol: the destination must be a freshly constructed
/// allocator with the same policy name and config (validated against the
/// recorded name and allocator_config_hash). The section's post-load step
/// checks every history category and created-category id against the
/// category table, replays the history through record_completion
/// (rebuilding record state, completed counts, revision and the
/// significance watermark), force-creates the policies of every recorded
/// created category (restoring the master Rng position — creation count is
/// what moves it), and finally overwrites each policy's sampler state with
/// the recorded bytes. Every refusal is a core::SnapshotError.
///
/// Requires config().record_history = true on the source (throws
/// std::logic_error otherwise): the completed counts are rebuilt from the
/// history.
void save_allocator(const TaskAllocator& allocator, util::ByteWriter& w);
void load_allocator(TaskAllocator& allocator, util::ByteReader& r);

/// Snapshot container: `"TORASNAP" [u32 version] body [u32 crc]` with the
/// trailing CRC-32C (util::crc32c) covering everything before it. seal
/// wraps a body; open validates magic, version and CRC and returns the
/// body, or nullopt for anything invalid (torn, truncated, corrupted, wrong
/// version) — a bad snapshot is an expected recovery input, not an
/// exception.
std::string seal_snapshot(std::string_view body);
std::optional<std::string> open_snapshot(std::string_view file);

/// The container version this build writes and reads (3: the first sealed
/// with CRC-32C).
std::uint32_t snapshot_version() noexcept;

/// The version of a sealed snapshot whose CRC-32C holds, whatever its
/// version (nullopt when the magic or CRC does not): what `tora fsck`
/// reports for a snapshot open_snapshot refuses only for its version.
std::optional<std::uint32_t> sealed_version(std::string_view file);

/// The version of a container written before CRC-32C seals (1 or 2, sealed
/// with CRC-32, which this build does not compute), read from its header
/// alone; nullopt for anything else. Recovery refuses such a snapshot as an
/// older format (FormatError) instead of counting it as torn.
std::optional<std::uint32_t> older_container_version(std::string_view file);

}  // namespace tora::core::recovery

namespace tora::core {

/// The allocator section as a field of an enclosing list (each tenant's
/// allocator in MultiTenantCore's), found by ADL.
inline void snapshot_save(util::ByteWriter& w, const TaskAllocator& a) {
  recovery::save_allocator(a, w);
}
inline void snapshot_load(util::ByteReader& r, TaskAllocator& a) {
  recovery::load_allocator(a, r);
}

}  // namespace tora::core
