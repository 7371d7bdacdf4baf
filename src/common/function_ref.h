// FunctionRef: a non-owning reference to a callable.
//
// std::function owns a copy of its target and heap-allocates it once the
// captures outgrow the small-object buffer — a per-call cost on hot paths
// (the query lattice walk takes one probe callback per query). A
// FunctionRef is two pointers: the callable's address and a trampoline.
// It never allocates and never copies the target, so the referenced
// callable must outlive every call through the reference. Binding a
// temporary lambda at a call site is safe: the temporary lives until the
// end of the full expression.
#ifndef HDKP2P_COMMON_FUNCTION_REF_H_
#define HDKP2P_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace hdk {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)  // NOLINT: implicit, like std::function
      : target_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* target, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(target))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(target_, std::forward<Args>(args)...);
  }

 private:
  void* target_;
  R (*call_)(void*, Args...);
};

}  // namespace hdk

#endif  // HDKP2P_COMMON_FUNCTION_REF_H_
