// Fixed-capacity, non-allocating callable wrapper for the event hot path.
//
// std::function heap-allocates any capture beyond its small-buffer size
// (16 bytes on libstdc++), which made every scheduled simulator event a
// malloc/free pair. InlineFunction stores the callable inside the object —
// sized for the largest capture the simulation schedules — so event
// callbacks live entirely inside pooled event nodes (src/sim/pool.h) and
// the kernel performs zero per-event allocations. Capture sizes are checked
// at compile time: an oversized lambda is a build error, never a silent
// fallback to the heap.
//
// Callables must be trivially copyable (lambdas capturing pointers and
// scalars are). That makes moves a plain byte copy and destruction free, so
// the queue never pays an indirect call to relocate or destroy a callback —
// the only indirection left is the invocation itself.
#ifndef MSTK_SRC_SIM_INLINE_FUNCTION_H_
#define MSTK_SRC_SIM_INLINE_FUNCTION_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mstk {

// Move-only type-erased `void()` callable with `Capacity` bytes of inline
// storage. Mirrors the std::function surface the event queue needs:
// construct from any callable, move, invoke.
template <size_t Capacity>
class InlineFunction {
 public:
  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "callable capture exceeds InlineFunction capacity; shrink "
                  "the capture (capture pointers, hoist state into members) "
                  "or raise kEventCallbackBytes");
    static_assert(alignof(Fn) <= alignof(void*), "over-aligned callable");
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "event callables must be trivially copyable: capture "
                  "pointers/scalars, not owning objects");
    static_assert(std::is_invocable_r_v<void, Fn&>, "callable must be void()");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    invoke_ = &InvokeFor<Fn>;
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() = default;  // callables are trivially destructible

  void operator()() { invoke_(storage_); }

 private:
  template <typename Fn>
  static void InvokeFor(void* storage) {
    (*std::launder(reinterpret_cast<Fn*>(storage)))();
  }

  void MoveFrom(InlineFunction& other) {
    invoke_ = other.invoke_;
    if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, Capacity);
      other.invoke_ = nullptr;
    }
  }

  // Pointer alignment, not max_align_t: captures are pointers and doubles,
  // and the looser requirement keeps the event node at 48 bytes.
  alignas(void*) unsigned char storage_[Capacity];
  void (*invoke_)(void*) = nullptr;
};

}  // namespace mstk

#endif  // MSTK_SRC_SIM_INLINE_FUNCTION_H_
