#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace dvc::sim {

/// A move-only `void()` callable: the one closure form of the kernel and
/// of the layers below the application that hold a continuation (Timer,
/// guest timers, bandwidth-pool transfers). A trivially copyable closure
/// of at most kInlineBytes (every `[this, id]` capture) is built in the
/// inline store; any other closure is moved to the heap, and the store
/// holds the one owning pointer. Both forms are called through one thunk,
/// so a call is one indirect call and a move is always a byte copy.
class Callback final {
 public:
  static constexpr std::size_t kInlineBytes = 16;

  /// True if a closure of type `F` is stored inline, without allocating.
  /// A hot call site pins its closure with
  /// `static_assert(Callback::stores_inline<decltype(f)>)`, so a capture
  /// that grows fails the build instead of quietly going to the heap.
  template <class F>
  static constexpr bool stores_inline =
      std::is_trivially_copyable_v<std::decay_t<F>> &&
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::uint64_t);

  Callback() noexcept = default;
  /// Implicit, so any `void()` callable converts where a Callback is
  /// taken. An lvalue is copied and an rvalue moved, inline or boxed.
  template <class F, class Fn = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<Fn, Callback>>>
  Callback(F&& f) {
    static_assert(std::is_invocable_v<Fn&>, "a callback takes no arguments");
    if constexpr (stores_inline<Fn>) {
      ::new (static_cast<void*>(bytes_)) Fn(std::forward<F>(f));
      call_ = [](void* b) { (*std::launder(static_cast<Fn*>(b)))(); };
    } else {
      ::new (static_cast<void*>(bytes_)) Fn*(new Fn(std::forward<F>(f)));
      call_ = [](void* b) { (**std::launder(static_cast<Fn**>(b)))(); };
      drop_ = [](void* b) { delete *std::launder(static_cast<Fn**>(b)); };
    }
  }
  Callback(Callback&& o) noexcept { take(o); }
  /// The replaced closure dies last, once both callbacks are consistent
  /// (its destructor may reach either). A self-move leaves this empty.
  Callback& operator=(Callback&& o) noexcept {
    const Callback replaced(std::move(*this));
    take(o);
    return *this;
  }
  ~Callback() {
    if (drop_ != nullptr) drop_(bytes_);
  }

  explicit operator bool() const noexcept { return call_ != nullptr; }
  void operator()() { call_(bytes_); }

 private:
  using Thunk = void (*)(void*);
  void take(Callback& o) noexcept {
    std::memmove(bytes_, o.bytes_, kInlineBytes);  // `o` may be `*this`
    call_ = std::exchange(o.call_, nullptr);
    drop_ = std::exchange(o.drop_, nullptr);
  }

  alignas(std::uint64_t) unsigned char bytes_[kInlineBytes] = {};
  Thunk call_ = nullptr;  ///< calls the closure whose bytes it is given
  Thunk drop_ = nullptr;  ///< deletes a boxed closure; null when inline
};

}  // namespace dvc::sim
