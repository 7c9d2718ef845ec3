#ifndef FOCUS_TESTS_SERVED_DAEMON_H_
#define FOCUS_TESTS_SERVED_DAEMON_H_

// The fixture shared by the tests that run the REAL focus_served binary
// (compiled path in FOCUS_SERVED_PATH): a temporary directory with a small
// reference, the daemon forked into a process group of its own, the port
// file it announces its port in, and its log.

#include <fcntl.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/transaction_db.h"
#include "io/data_io.h"

namespace focus::tests {

// `transactions` rows over `num_items` items: item i is in row t unless
// (t + i + salt) % 3 == 0, so each salt gives another content hash.
inline data::TransactionDb SmallDb(int32_t num_items, int64_t transactions,
                                   int64_t salt = 0) {
  data::TransactionDb db(num_items);
  std::vector<int32_t> items;
  for (int64_t t = 0; t < transactions; ++t) {
    items.clear();
    for (int32_t i = 0; i < num_items; ++i) {
      if ((t + i + salt) % 3 != 0) items.push_back(i);
    }
    db.AddTransaction(items);
  }
  return db;
}

inline std::string Serialize(const data::TransactionDb& db) {
  std::ostringstream out;
  io::SaveTransactionDb(db, out);
  return out.str();
}

class ServedDaemonTest : public ::testing::Test {
 protected:
  // A fresh <TempDir>/<suite>_<seed>_<test> holding reference.txns, a
  // SmallDb(10, 60).
  void SetUp() override {
    const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
    root_ = std::filesystem::path(::testing::TempDir()) /
            (std::string(unit.current_test_info()->test_suite_name()) + "_" +
             std::to_string(unit.random_seed()) + "_" +
             unit.current_test_info()->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    reference_path_ = (root_ / "reference.txns").string();
    port_file_ = (root_ / "port.txt").string();
    ASSERT_TRUE(io::SaveTransactionDbToFile(SmallDb(10, 60), reference_path_));
  }

  void TearDown() override {
    if (pid_ > 0) {  // a test failed before the clean shutdown
      kill(-pid_, SIGKILL);  // the daemon and any forked workers: one group
      waitpid(pid_, nullptr, 0);
    }
    std::filesystem::remove_all(root_);
  }

  // Forks and execs the daemon with `args` (after argv[0]) in a process
  // group of its own, which its forked workers join, logging stdout and
  // stderr to stdout.txt. Does not wait.
  void Spawn(std::vector<std::string> args) {
    args.insert(args.begin(), FOCUS_SERVED_PATH);
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ == 0) {
      setpgid(0, 0);
      const int out = open((root_ / "stdout.txt").c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC, 0644);
      dup2(out, STDOUT_FILENO);
      dup2(out, STDERR_FILENO);
      execv(FOCUS_SERVED_PATH, argv.data());
      _exit(127);  // exec failed
    }
    setpgid(pid_, pid_);  // also here, so the group exists on return
  }

  // Waits up to `attempts` x 25 ms for --port-file to announce the bound
  // port, into port_. False (failing the test) on a boot timeout.
  bool WaitForPort(int attempts) {
    for (int i = 0; i < attempts; ++i) {
      std::ifstream in(port_file_);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<uint16_t>(port);
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ADD_FAILURE() << "daemon never wrote " << port_file_;
    return false;
  }

  // Waits up to `timeout_ms` for the daemon to exit; true, with its wait
  // status in `*status`, once it has been reaped.
  bool WaitForExit(int timeout_ms, int* status) {
    for (int waited = 0; waited <= timeout_ms; waited += 20) {
      if (waitpid(pid_, status, WNOHANG) == pid_) {
        pid_ = -1;
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  }

  // SIGTERM + waitpid; returns the daemon's exit code (-1 on signal death).
  int TerminateDaemon() {
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  // The daemon's stdout and stderr so far.
  std::string ReadLog() const {
    std::ifstream log(root_ / "stdout.txt");
    std::stringstream text;
    text << log.rdbuf();
    return text.str();
  }

  std::filesystem::path root_;
  std::string reference_path_;
  std::string port_file_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace focus::tests

#endif  // FOCUS_TESTS_SERVED_DAEMON_H_
