#pragma once

#include <type_traits>
#include <utility>

namespace ifgen {

template <typename Sig>
class FunctionRef;

/// \brief A non-owning reference to a callable: an object pointer and a call
/// thunk, so passing one never allocates (unlike std::function). The callable
/// must outlive every call made through the reference; in practice it is a
/// lambda in the frame of the call that receives it.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FunctionRef>>>
  FunctionRef(const F& f)  // NOLINT(runtime/explicit): lambdas convert implicitly
      : callable_(&f), call_([](const void* c, Args... args) -> R {
          return (*static_cast<const F*>(c))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(callable_, std::forward<Args>(args)...); }

 private:
  const void* callable_;
  R (*call_)(const void*, Args...);
};

}  // namespace ifgen
