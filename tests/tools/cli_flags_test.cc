// The CLI's flag contract: a command refuses every flag it does not read
// -- a typo ("--thread"), a removed flag or another command's flag --
// with a diagnostic naming the flag and exit code 2, instead of running a
// different job than the one asked for; 0|1 switches refuse any other
// value the same way. Also a few output contracts: inspect's failure
// paths and count's memory line. Runs the real tristream_cli binary from
// this test's build directory (build it too: `cmake --build build`).

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gen/erdos_renyi.h"
#include "gtest/gtest.h"
#include "stream/binary_io.h"

namespace tristream {
namespace {

std::string CliPath() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return {};
  const std::string self(buffer, static_cast<std::size_t>(n));
  const std::string cli = self.substr(0, self.find_last_of('/')) +
                          "/tristream_cli";
  return ::access(cli.c_str(), X_OK) == 0 ? cli : std::string();
}

struct CliRun {
  int exit_code = -1;
  std::string stdout_text;
  std::string stderr_text;
};

std::string ReadWhole(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Runs tristream_cli with `args`, captures both streams, and waits for it.
CliRun RunCli(const std::string& cli, std::vector<std::string> args) {
  const std::string out_path =
      std::string(::testing::TempDir()) + "/cli_flags_stdout";
  const std::string err_path =
      std::string(::testing::TempDir()) + "/cli_flags_stderr";
  args.insert(args.begin(), cli);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  CliRun run;
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (std::freopen(out_path.c_str(), "w", stdout) == nullptr ||
        std::freopen(err_path.c_str(), "w", stderr) == nullptr) {
      _exit(127);
    }
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return run;
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  run.stdout_text = ReadWhole(out_path);
  run.stderr_text = ReadWhole(err_path);
  return run;
}

class CliFlagsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cli_ = CliPath();
    if (cli_.empty()) {
      GTEST_SKIP() << "tristream_cli not built next to this test";
    }
    input_ = std::string(::testing::TempDir()) + "/cli_flags_input.tris";
    ASSERT_TRUE(
        stream::WriteBinaryEdges(input_, gen::GnmRandom(200, 1500, 4)).ok());
  }
  void TearDown() override {
    if (!input_.empty()) std::remove(input_.c_str());
  }

  /// Expects `args` to exit 2 with `message` on stderr.
  void ExpectExit2(const std::vector<std::string>& args,
                   const std::string& message) {
    const CliRun run = RunCli(cli_, args);
    EXPECT_EQ(run.exit_code, 2) << args[0] << " " << message;
    EXPECT_NE(run.stderr_text.find(message), std::string::npos)
        << run.stderr_text;
  }

  /// Expects `args` to be refused with exit 2 and `flag` named on stderr.
  void ExpectRefused(const std::vector<std::string>& args,
                     const std::string& flag) {
    ExpectExit2(args, "does not take flag " + flag);
  }

  std::string cli_;
  std::string input_;
};

TEST_F(CliFlagsTest, CountRefusesMisspelledFlags) {
  ExpectRefused({"count", "--input", input_, "--estimator", "64",
                 "--threads", "2"},
                "--estimator");
  ExpectRefused({"count", "--input", input_, "--estimators", "64",
                 "--thread", "2"},
                "--thread");
}

TEST_F(CliFlagsTest, RemovedAndForeignFlagsAreRefused) {
  ExpectRefused({"count", "--input", input_, "--pipeline", "0"},
                "--pipeline");
  ExpectRefused({"count", "--input", input_, "--workers", "2"}, "--workers");
  ExpectRefused({"stats", "--input", input_, "--estimators", "64"},
                "--estimators");
  ExpectRefused({"inspect", input_, "--thread", "2"}, "--thread");
  ExpectRefused({"sample", "--input", input_, "--max-degree", "50",
                 "--threads", "2"},
                "--threads");
  ExpectRefused({"count", "--input", input_, "--autotune"}, "--autotune");
  ExpectRefused({"count", "--input", input_, "--numa", "off"}, "--numa");
  ExpectRefused({"count", "--input", input_, "--numa-replicate",
                 "--threads", "2"},
                "--numa-replicate");
  // A misspelled valueless flag is named, not read as taking a value.
  ExpectRefused({"count", "--input", input_, "--median-of-mean"},
                "--median-of-mean");
  ExpectRefused({"count", "--input", input_, "--median-of-mean",
                 "--threads", "2"},
                "--median-of-mean");
}

TEST_F(CliFlagsTest, SwitchesTakeOnlyZeroOrOne) {
  ExpectExit2({"count", "--input", input_, "--pin", "7"},
              "flag --pin expects 0 or 1, got '7'");
  ExpectExit2({"count", "--input", input_, "--mmap", "5"},
              "flag --mmap expects 0 or 1, got '5'");
}

TEST_F(CliFlagsTest, FlagsTheCommandReadsAreAccepted) {
  const CliRun run = RunCli(
      cli_, {"count", "--input", input_, "--estimators", "256", "--threads",
             "2", "--seed", "3", "--batch", "512", "--pin", "1", "--simd",
             "off", "--mmap", "0", "--median-of-means"});
  EXPECT_EQ(run.exit_code, 0) << run.stderr_text;
  EXPECT_EQ(RunCli(cli_, {"stats", "--input", input_}).exit_code, 0);
}

TEST_F(CliFlagsTest, InspectPrintsAnUnsupportedHeaderThenFails) {
  // inspect prints the header as stored, then fails on the version with
  // the shared decoder's message.
  const std::string path =
      std::string(::testing::TempDir()) + "/cli_flags_v3.tris";
  std::string bytes = ReadWhole(input_);
  ASSERT_GE(bytes.size(), stream::kTrisHeaderBytes);
  bytes[4] = 3;  // version 3, little-endian
  std::ofstream(path, std::ios::binary) << bytes;
  const CliRun run = RunCli(cli_, {"inspect", path});
  std::remove(path.c_str());
  EXPECT_EQ(run.exit_code, 1) << run.stderr_text;
  EXPECT_NE(run.stdout_text.find("version     : 3 (unknown)"),
            std::string::npos)
      << run.stdout_text;
  EXPECT_NE(run.stdout_text.find("count       : 1500 edges"),
            std::string::npos)
      << run.stdout_text;
  EXPECT_NE(run.stderr_text.find("CorruptData"), std::string::npos)
      << run.stderr_text;
  EXPECT_NE(run.stderr_text.find("unsupported version 3"), std::string::npos)
      << run.stderr_text;
  EXPECT_NE(run.stderr_text.find(path), std::string::npos) << run.stderr_text;

  const CliRun good = RunCli(cli_, {"inspect", input_});
  EXPECT_EQ(good.exit_code, 0) << good.stderr_text;
  EXPECT_NE(good.stdout_text.find("version     : 1 (insert-only edges)"),
            std::string::npos)
      << good.stdout_text;
}

TEST_F(CliFlagsTest, CountPrintsItsFrontEndMemory) {
  // Every algorithm meters its estimator: at 4096 estimators each state
  // shows as at least 0.1 MiB. The huge-pages clause is there whenever
  // the kernel reports AnonHugePages, whatever its value.
  const bool smaps_rollup =
      std::ifstream("/proc/self/smaps_rollup").good();
  for (const char* algo : {"tsb", "buriol", "colorful", "jg", "first-edge"}) {
    const CliRun run = RunCli(
        cli_, {"count", "--input", input_, "--algo", algo, "--estimators",
               "4096", "--vertices", "200", "--max-degree", "200"});
    EXPECT_EQ(run.exit_code, 0) << algo << ": " << run.stderr_text;
    const std::size_t line = run.stdout_text.find("\nmemory          : ");
    ASSERT_NE(line, std::string::npos) << algo << ": " << run.stdout_text;
    const std::string text = run.stdout_text.substr(
        line + 1, run.stdout_text.find('\n', line + 1) - line - 1);
    double estimator_mib = 0.0;
    EXPECT_EQ(std::sscanf(text.c_str(), "memory : %lf MiB estimator, ",
                          &estimator_mib),
              1)
        << text;
    EXPECT_GT(estimator_mib, 0.0) << text;
    EXPECT_NE(text.find(" MiB estimator, "), std::string::npos) << text;
    EXPECT_NE(text.find(" MiB dedup filter"), std::string::npos) << text;
    EXPECT_EQ(text.find(" MiB dedup filter, ") != std::string::npos &&
                  text.ends_with(" MiB on huge pages"),
              smaps_rollup)
        << text;
  }
}

}  // namespace
}  // namespace tristream
