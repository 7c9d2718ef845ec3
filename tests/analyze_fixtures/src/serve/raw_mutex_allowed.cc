// Fixture: an allow() directive on the line above suppresses raw-mutex.
#include <mutex>

namespace focus::serve {

class Legacy {
 private:
  // Interop with a vendored API that hands out std::unique_lock.
  // focus-analyze: allow(raw-mutex)
  std::mutex vendored_mu_;
};

}  // namespace focus::serve
