#include "core/recovery/snapshot.hpp"

#include <stdexcept>
#include <vector>

#include "core/checkpoint.hpp"
#include "util/bytes.hpp"

namespace tora::core::recovery {

namespace {

constexpr std::string_view kMagic = "TORASNAP";
constexpr std::uint32_t kVersion = 3;
/// Versions 1 and 2 sealed the container with CRC-32, which this build
/// does not compute: it recognises them by their header alone.
constexpr std::uint32_t kFirstCrc32cVersion = 3;

/// The allocator section as it sits in a body. save_allocator fills one
/// from the allocator; load_allocator decodes one whose post-load step
/// checks it against `target` and replays it there.
struct AllocatorSection {
  struct Category {
    std::string name;
    std::uint64_t records = 0;  ///< completions recorded for the category

    static constexpr auto fields() {
      return snapshot::section(
          "AllocatorCategory", snapshot::field("name", &Category::name),
          snapshot::field("records", &Category::records));
    }
  };
  struct Created {
    std::uint32_t id = 0;
    std::vector<std::string> samplers;  ///< one per managed dimension

    static constexpr auto fields() {
      return snapshot::section(
          "CreatedCategory", snapshot::field("id", &Created::id),
          snapshot::field("samplers", &Created::samplers,
                          snapshot::kFixedSize));
    }
  };

  TaskAllocator* target = nullptr;  ///< load: the allocator to restore
  std::string policy;
  std::uint64_t config_hash = 0;
  std::vector<Category> categories;
  std::vector<TaskAllocator::CompletionRecord> history;
  std::vector<Created> created;

  static constexpr auto fields() {
    using S = AllocatorSection;
    using snapshot::field;
    return snapshot::section(
        "Allocator", &S::after_load, field("policy", &S::policy),
        field("config_hash", &S::config_hash),
        field("categories", &S::categories), field("history", &S::history),
        field("created", &S::created));
  }

  void after_load();
};

void AllocatorSection::after_load() {
  TaskAllocator& a = *target;
  if (policy != a.policy_name()) {
    throw SnapshotError("Allocator", "policy",
                        snapshot::mismatch(a.policy_name(), policy) +
                            "; reconstruct the allocator with the original "
                            "policy");
  }
  const std::uint64_t hash = allocator_config_hash(a.config());
  if (config_hash != hash) {
    throw SnapshotError(
        "Allocator", "config_hash",
        snapshot::mismatch(hash, config_hash) +
            " (worker capacity, exploration, managed resources or history "
            "flag differ); reconstruct the allocator with the original "
            "config");
  }
  for (std::size_t i = 0; i < categories.size(); ++i) {
    if (a.intern(categories[i].name) != i) {
      throw SnapshotError("AllocatorCategory", "name",
                          "'" + categories[i].name +
                              "' does not intern to its recorded id (repeated, "
                              "or the allocator is not fresh)");
    }
  }
  for (const TaskAllocator::CompletionRecord& rec : history) {
    if (rec.category >= categories.size()) {
      throw SnapshotError("CompletionRecord", "category",
                          "id " + std::to_string(rec.category) +
                              " is not below the category count " +
                              std::to_string(categories.size()));
    }
    a.record_completion(rec.category, rec.peak, rec.significance);
  }
  for (std::size_t i = 0; i < categories.size(); ++i) {
    const std::size_t replayed = a.records_for(static_cast<CategoryId>(i));
    if (replayed != categories[i].records) {
      throw SnapshotError("AllocatorCategory", "records",
                          snapshot::mismatch(replayed, categories[i].records) +
                              " (the replayed history disagrees)");
    }
  }
  const auto& managed = a.config().managed;
  std::vector<char> seen(categories.size(), 0);
  for (const Created& c : created) {
    if (c.id >= categories.size() || seen[c.id]++) {
      throw SnapshotError("CreatedCategory", "id",
                          "id " + std::to_string(c.id) +
                              " must name a category once");
    }
    // Touching one managed policy creates all of the category's instances,
    // advancing the factory's master Rng by exactly as many draws as the
    // crashed allocator spent on this category. The drawn values are then
    // overwritten by the recorded sampler states.
    a.policy(c.id, managed.front());
    for (std::size_t k = 0; k < managed.size(); ++k) {
      a.policy(c.id, managed[k]).restore_sampler_state(c.samplers[k]);
    }
  }
  // History replay is a bulk load: merge staged observations now so the
  // restored allocator starts from fully-merged state (flushing touches no
  // sampler state, so the bit-exact fingerprint is unaffected).
  a.flush_policies();
}

}  // namespace

void save_allocator(const TaskAllocator& allocator, util::ByteWriter& w) {
  const AllocatorConfig& config = allocator.config();
  if (!config.record_history) {
    throw std::logic_error(
        "recovery snapshot: allocator must record history "
        "(AllocatorConfig::record_history = true) for bit-exact restore");
  }
  AllocatorSection s;
  s.policy = allocator.policy_name();
  s.config_hash = allocator_config_hash(config);
  const std::size_t categories = allocator.category_count();
  for (CategoryId id = 0; id < categories; ++id) {
    s.categories.push_back(
        {allocator.category_name(id), allocator.records_for(id)});
    if (!allocator.policies_created(id)) continue;
    AllocatorSection::Created& c = s.created.emplace_back();
    c.id = id;
    for (ResourceKind k : config.managed) {
      const ResourcePolicy* p = allocator.policy_if_created(id, k);
      if (!p) {
        throw std::logic_error(
            "recovery snapshot: created category missing a managed policy");
      }
      c.samplers.push_back(p->sampler_state());
    }
  }
  s.history = allocator.history();
  snapshot::save(w, s);
}

void load_allocator(TaskAllocator& allocator, util::ByteReader& r) {
  AllocatorSection s;
  s.target = &allocator;
  // The blank every decoded created category starts from: one sampler
  // state per managed dimension.
  s.created.resize(1);
  s.created.front().samplers.resize(allocator.config().managed.size());
  snapshot::load(r, s);
}

std::string seal_snapshot(std::string_view body) {
  const auto append_u32 = [](std::string& out, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  };
  std::string out;
  out.reserve(kMagic.size() + 4 + body.size() + 4);
  out += kMagic;
  append_u32(out, kVersion);
  out += body;
  append_u32(out, util::crc32c(out));
  return out;
}

std::optional<std::string> open_snapshot(std::string_view file) {
  if (sealed_version(file) != kVersion) return std::nullopt;
  const std::size_t header = kMagic.size() + 4;
  return std::string(file.substr(header, file.size() - header - 4));
}

std::uint32_t snapshot_version() noexcept { return kVersion; }

namespace {

/// The version field of a file that starts with the magic.
std::optional<std::uint32_t> header_version(std::string_view file) {
  const std::size_t overhead = kMagic.size() + 4 + 4;
  if (file.size() < overhead) return std::nullopt;
  if (file.substr(0, kMagic.size()) != kMagic) return std::nullopt;
  util::ByteReader head(file.substr(kMagic.size(), 4));
  return head.u32();
}

}  // namespace

std::optional<std::uint32_t> sealed_version(std::string_view file) {
  const auto version = header_version(file);
  if (!version) return std::nullopt;
  util::ByteReader tail(file.substr(file.size() - 4));
  if (tail.u32() != util::crc32c(file.substr(0, file.size() - 4))) {
    return std::nullopt;
  }
  return version;
}

std::optional<std::uint32_t> older_container_version(std::string_view file) {
  const auto version = header_version(file);
  if (!version || *version == 0 || *version >= kFirstCrc32cVersion) {
    return std::nullopt;
  }
  return version;
}

}  // namespace tora::core::recovery
