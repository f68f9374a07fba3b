// Store: convenience bundle of the storage substrate — a base device (the
// modeled in-memory disk by default, or any registered backend), its
// metering wrapper, and an extent allocator over the same address range.

#ifndef WAVEKIT_STORAGE_STORE_H_
#define WAVEKIT_STORAGE_STORE_H_

#include <memory>
#include <string_view>
#include <utility>

#include "storage/backend_registry.h"
#include "storage/device.h"
#include "storage/extent_allocator.h"
#include "storage/metered_device.h"
#include "storage/synchronized_device.h"
#include "util/macros.h"

namespace wavekit {

/// \brief One self-contained disk. Examples, tests, and the experiment
/// driver all start from a Store.
///
/// The device is the synchronized (thread-safe) metered variant, so stores
/// can back concurrent serving out of the box; an uncontended mutex costs
/// nothing measurable next to the simulated I/O.
class Store {
 public:
  explicit Store(uint64_t capacity_bytes = uint64_t{16} << 30)
      : base_(std::make_unique<MemoryDevice>(capacity_bytes)),
        metered_(base_.get()),
        allocator_(capacity_bytes) {}

  /// Wraps an externally opened backend device (takes ownership); the
  /// allocator spans the device's capacity. Prefer Open() below, which also
  /// applies the backend's alignment capability.
  explicit Store(std::unique_ptr<Device> device)
      : base_(std::move(device)),
        metered_(base_.get()),
        allocator_(base_->capacity()) {}

  /// Opens a Store over the named registered backend ("memory", "file",
  /// "uring", "mmap"), applying the backend's effective extent alignment
  /// (O_DIRECT backends get 4 KiB-aligned placement automatically).
  static Result<std::unique_ptr<Store>> Open(std::string_view backend,
                                             const BackendConfig& config) {
    WAVEKIT_ASSIGN_OR_RETURN(std::unique_ptr<Device> device,
                             BackendRegistry::Global().Create(backend, config));
    WAVEKIT_ASSIGN_OR_RETURN(
        const BackendCapabilities capabilities,
        BackendRegistry::Global().EffectiveCapabilities(backend, config));
    auto store = std::make_unique<Store>(std::move(device));
    if (capabilities.alignment > 1) {
      store->allocator()->set_default_alignment(capabilities.alignment);
    }
    return store;
  }

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  MeteredDevice* device() { return &metered_; }
  ExtentAllocator* allocator() { return &allocator_; }
  const MeteredDevice& device() const { return metered_; }
  const ExtentAllocator& allocator() const { return allocator_; }

  /// The raw backend under the meter (backend-aware tests/benches).
  Device* base_device() { return base_.get(); }

 private:
  std::unique_ptr<Device> base_;
  SynchronizedMeteredDevice metered_;
  ExtentAllocator allocator_;
};

}  // namespace wavekit

#endif  // WAVEKIT_STORAGE_STORE_H_
