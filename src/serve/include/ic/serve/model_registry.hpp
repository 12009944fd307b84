// Named trained-model store with atomic hot-reload (DESIGN.md §9).
//
// The registry owns immutable ModelSnapshot objects, one per named model.
// A snapshot is loaded from disk exactly once and never mutated afterwards;
// readers hold it through a shared_ptr, so a reload swaps the map entry
// atomically (under the registry mutex) while every in-flight request keeps
// the snapshot it started with — no request ever observes half a model.
//
// Hot reload is polling-based: poll_reload() re-stats each snapshot's file
// and reloads the ones whose (mtime, size) changed. The TCP server runs this
// on a timer; tests call it directly.
//
// GnnRegressor::predict is const and keeps no activations, so every engine
// executor predicts on the snapshot's one shared model.
//
// Telemetry: gauge serve.models, counter serve.model_reloads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ic/core/model_io.hpp"
#include "ic/data/dataset.hpp"
#include "ic/nn/regressor.hpp"

namespace ic::serve {

/// One immutable loaded model. `version` starts at 1 and increments on every
/// reload of the same name, so caches key on (name, version).
struct ModelSnapshot {
  std::string name;
  std::string path;
  std::uint64_t version = 0;
  core::ModelSpec spec;
  std::shared_ptr<const nn::GnnRegressor> model;

  data::StructureKind structure_kind() const {
    return core::structure_kind_for(spec.variant);
  }
  /// A plain copy of the model. The engine predicts on `model` directly;
  /// perfbench's direct-predict probe times predictions on this copy.
  nn::GnnRegressor replica() const { return *model; }
};

class ModelRegistry {
 public:
  /// Load `path` under `name`, replacing any existing snapshot of that name
  /// (version increments across replacements). v2 files construct the model
  /// from the header alone; v1 files are loaded into the default
  /// architecture and rejected if they do not fit it.
  std::shared_ptr<const ModelSnapshot> load(const std::string& name,
                                            const std::string& path);

  /// Current snapshot of a name, or nullptr.
  std::shared_ptr<const ModelSnapshot> get(const std::string& name) const;

  /// Re-stat every model file and reload the changed ones. A file that fails
  /// to reload (deleted, truncated mid-write) keeps its current snapshot and
  /// counts serve.model_reload_errors. Returns how many models reloaded.
  std::size_t poll_reload();

  std::vector<std::string> names() const;
  std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const ModelSnapshot> snapshot;
    std::int64_t mtime_ns = 0;  ///< st_mtim as nanoseconds
    std::int64_t file_size = 0;
  };

  static std::shared_ptr<const ModelSnapshot> load_snapshot(
      const std::string& name, const std::string& path, std::uint64_t version);
  static bool stat_file(const std::string& path, std::int64_t* mtime_ns,
                        std::int64_t* size);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace ic::serve
