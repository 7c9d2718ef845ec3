#ifndef FOCUS_TESTS_BACK_PRESSURE_H_
#define FOCUS_TESTS_BACK_PRESSURE_H_

// The back-pressure check shared by the HTTP and wire server tests: a
// client that pipelines requests and does not read the replies.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

namespace focus::tests {

// Shrinks connected socket `fd`'s receive buffer, sends `requests` (`n`
// pipelined requests whose replies are `reply_bytes` each) and reads
// nothing. The server must stop reading the connection once the socket
// holds what it can, so `handled()` settles far below `n`; a server that
// kept reading would queue all n replies. (The kernel's buffers take
// some: with Linux's default 4 MiB TCP send-buffer cap, about 64 of 512
// 64-KiB replies.) Then reads every reply: the server resumes as its
// queue drains and answers all n.
inline void ExpectBackPressure(int fd, std::string_view requests, int64_t n,
                               size_t reply_bytes,
                               const std::function<int64_t()>& handled) {
  const timeval timeout{5, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  // Small, but not below one loopback MSS (64 KiB): a smaller window
  // makes TCP crawl once the client does read.
  const int small = 64 << 10;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small)),
            0);
  ASSERT_EQ(::send(fd, requests.data(), requests.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(requests.size()));

  // Wait until the count has not moved for 200 ms (at most 5 s).
  int64_t last = -1;
  for (int stable = 0, i = 0; stable < 4 && i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const int64_t now = handled();
    stable = now == last ? stable + 1 : 0;
    last = now;
  }
  EXPECT_GT(last, 0);
  EXPECT_LT(last, n / 4) << "the server kept answering a client that reads "
                            "nothing";

  const size_t want = static_cast<size_t>(n) * reply_bytes;
  size_t got = 0;
  std::vector<char> buffer(1 << 16);
  while (got < want) {
    const ssize_t r = ::recv(fd, buffer.data(), buffer.size(), 0);
    if (r <= 0) break;
    got += static_cast<size_t>(r);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(handled(), n);
}

}  // namespace focus::tests

#endif  // FOCUS_TESTS_BACK_PRESSURE_H_
