// Small-buffer-optimised move-only callable, the event queue's callback type.
//
// std::function heap-allocates for captures beyond ~2 pointers and requires
// copyable targets; simulation callbacks are pushed/popped millions of times
// per run and routinely capture move-only PacketPtrs.  SboFunction stores
// captures up to `Capacity` bytes inline (no allocation) and falls back to
// the heap only for oversized closures, which the hot path never produces.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace cgs::util {

template <std::size_t Capacity = 48,
          std::size_t Align = alignof(std::max_align_t)>
class SboFunction {
 public:
  static constexpr std::size_t kInlineCapacity = Capacity;
  static constexpr std::size_t kInlineAlignment = Align;
  // The heap fallback stores a Fn* in the inline storage.
  static_assert(Capacity >= sizeof(void*) && Align >= alignof(void*));

  SboFunction() = default;

  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, SboFunction> &&
             std::is_invocable_r_v<void, std::remove_cvref_t<F>&>)
  SboFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  SboFunction(SboFunction&& other) noexcept { move_from(other); }

  SboFunction& operator=(SboFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SboFunction(const SboFunction&) = delete;
  SboFunction& operator=(const SboFunction&) = delete;

  ~SboFunction() { reset(); }

  void operator()() { vt_->invoke(&storage_); }

  [[nodiscard]] explicit operator bool() const { return vt_ != nullptr; }

  void reset() {
    if (vt_ != nullptr) {
      vt_->destroy(&storage_);
      vt_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void*);
    // Move-construct into dst from src, then destroy src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= Capacity && alignof(Fn) <= Align &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (&storage_) Fn(std::forward<F>(f));
      static constexpr VTable vt{
          [](void* s) { (*std::launder(static_cast<Fn*>(s)))(); },
          [](void* dst, void* src) {
            Fn* from = std::launder(static_cast<Fn*>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
          },
          [](void* s) { std::launder(static_cast<Fn*>(s))->~Fn(); }};
      vt_ = &vt;
    } else {
      ::new (&storage_) Fn*(new Fn(std::forward<F>(f)));
      static constexpr VTable vt{
          [](void* s) { (**std::launder(static_cast<Fn**>(s)))(); },
          [](void* dst, void* src) {
            Fn** from = std::launder(static_cast<Fn**>(src));
            ::new (dst) Fn*(*from);
          },
          [](void* s) { delete *std::launder(static_cast<Fn**>(s)); }};
      vt_ = &vt;
    }
  }

  void move_from(SboFunction& other) noexcept {
    vt_ = other.vt_;
    if (vt_ != nullptr) {
      vt_->relocate(&storage_, &other.storage_);
      other.vt_ = nullptr;
    }
  }

  const VTable* vt_ = nullptr;
  alignas(Align) std::byte storage_[Capacity];
};

}  // namespace cgs::util
