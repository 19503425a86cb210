//===- driver/Batch.cpp ---------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"

#include "support/Json.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace csdf;

const char *csdf::batchModeName(BatchMode Mode) {
  switch (Mode) {
  case BatchMode::Fork:
    return "fork";
  case BatchMode::Threads:
    return "threads";
  }
  return "unknown";
}

const char *csdf::batchExitReasonName(BatchExitReason Reason) {
  switch (Reason) {
  case BatchExitReason::Exited:
    return "exited";
  case BatchExitReason::Signaled:
    return "signaled";
  case BatchExitReason::TimedOut:
    return "timed-out";
  }
  return "unknown";
}

bool csdf::collectBatchInputs(const std::string &DirOrList,
                              std::vector<std::string> &Files,
                              std::string &Error) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  if (fs::is_directory(DirOrList, Ec)) {
    for (const fs::directory_entry &E : fs::directory_iterator(DirOrList, Ec))
      if (E.is_regular_file() && E.path().extension() == ".mpl")
        Files.push_back(E.path().string());
    std::sort(Files.begin(), Files.end());
    if (Files.empty()) {
      Error = "error: no .mpl files in directory '" + DirOrList + "'";
      return false;
    }
    return true;
  }
  std::ifstream In(DirOrList);
  if (!In) {
    Error = "error: cannot read '" + DirOrList + "'";
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    // Trim and skip blanks/comments so hand-maintained lists stay tidy.
    size_t B = Line.find_first_not_of(" \t\r");
    size_t E = Line.find_last_not_of(" \t\r");
    if (B == std::string::npos || Line[B] == '#')
      continue;
    Files.push_back(Line.substr(B, E - B + 1));
  }
  if (Files.empty()) {
    Error = "error: file list '" + DirOrList + "' names no inputs";
    return false;
  }
  return true;
}

namespace {

std::uint64_t nowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Runs one session in the already-forked child and reports the outcome
/// line over \p OutFd as "verdict\tdetail\n". Never returns.
[[noreturn]] void childMain(const std::string &File,
                            const SessionOptions &Opts, int OutFd) {
  // The child talks to the parent only through the outcome pipe; analysis
  // chatter would interleave across jobs.
  int DevNull = ::open("/dev/null", O_WRONLY);
  if (DevNull >= 0) {
    ::dup2(DevNull, STDOUT_FILENO);
    ::dup2(DevNull, STDERR_FILENO);
    ::close(DevNull);
  }

  std::string Verdict;
  std::string Detail;
  int Code = runSessionOutcome(File, Opts, Verdict, Detail);
  std::string Line = Verdict + "\t" + Detail + "\n";
  // Best effort: if the parent vanished there is nobody to report to.
  ssize_t Unused = ::write(OutFd, Line.c_str(), Line.size());
  (void)Unused;
  ::close(OutFd);
  ::_exit(Code);
}

struct RunningChild {
  size_t Index = 0;
  int PipeFd = -1;
  std::uint64_t StartMs = 0;
  bool Killed = false;
};

/// Drains whatever the child wrote to its outcome pipe (at most a line).
std::string drainPipe(int Fd) {
  std::string Out;
  char Buf[512];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  return Out;
}

} // namespace

void csdf::sessionVerdict(const SessionResult &R, std::string &Verdict,
                          std::string &Detail) {
  if (R.ExitCode == SessionExitUsage) {
    Verdict = "usage-error";
    Detail = R.Error;
  } else if (R.FrontEndErrors) {
    Verdict = "front-end-errors";
    // First line only: the report row (and pipe protocol) is one line.
    Detail = R.Error.substr(0, R.Error.find('\n'));
  } else {
    Verdict = R.Outcome.str();
    Detail = R.Outcome.Reason;
    if (R.ExitCode == SessionExitFindings && R.Outcome.complete())
      Detail = std::to_string(R.Report.Analysis.Bugs.size()) +
               " bug candidate(s)";
  }
  std::replace(Detail.begin(), Detail.end(), '\n', ' ');
  std::replace(Detail.begin(), Detail.end(), '\t', ' ');
}

int csdf::runSessionOutcome(const std::string &File,
                            const SessionOptions &Opts, std::string &Verdict,
                            std::string &Detail) {
  SessionResult R;
  std::string Source;
  if (!readSessionFile(File, Source, R.Error))
    R.ExitCode = SessionExitUsage;
  else
    R = runAnalysisSession(File, Source, Opts);
  sessionVerdict(R, Verdict, Detail);
  return R.ExitCode;
}

BatchReport csdf::runBatchFork(const std::vector<std::string> &Files,
                               const BatchOptions &Opts) {
  BatchReport Report;
  Report.Entries.resize(Files.size());
  for (size_t I = 0; I < Files.size(); ++I)
    Report.Entries[I].File = Files[I];

  unsigned Jobs = std::max(1u, Opts.Jobs);
  std::map<pid_t, RunningChild> Running;
  size_t Next = 0;

  auto Spawn = [&](size_t Index) -> bool {
    int Fds[2];
    if (::pipe(Fds) != 0)
      return false;
    pid_t Pid = ::fork();
    if (Pid < 0) {
      ::close(Fds[0]);
      ::close(Fds[1]);
      return false;
    }
    if (Pid == 0) {
      ::close(Fds[0]);
      // No core dumps from deliberate crash corpora; bound CPU and
      // address space so even a non-cooperative child cannot run away.
      struct rlimit NoCore = {0, 0};
      ::setrlimit(RLIMIT_CORE, &NoCore);
      if (Opts.TimeoutMs) {
        rlim_t Secs = static_cast<rlim_t>(Opts.TimeoutMs / 1000 + 2);
        struct rlimit Cpu = {Secs, Secs + 1};
        ::setrlimit(RLIMIT_CPU, &Cpu);
      }
      if (Opts.AddressSpaceMb) {
        rlim_t Bytes = static_cast<rlim_t>(Opts.AddressSpaceMb) * 1024 * 1024;
        struct rlimit As = {Bytes, Bytes};
        ::setrlimit(RLIMIT_AS, &As);
      }
      childMain(Files[Index], Opts.Session, Fds[1]);
    }
    ::close(Fds[1]);
    Running[Pid] = {Index, Fds[0], nowMs(), false};
    return true;
  };

  auto Reap = [&](pid_t Pid, int Status, const struct rusage &Ru) {
    auto It = Running.find(Pid);
    if (It == Running.end())
      return;
    RunningChild Child = It->second;
    Running.erase(It);
    BatchEntry &E = Report.Entries[Child.Index];
    E.WallMs = nowMs() - Child.StartMs;
    // Linux reports ru_maxrss in kilobytes.
    E.PeakRssKb = static_cast<std::uint64_t>(Ru.ru_maxrss);

    std::string Line = drainPipe(Child.PipeFd);
    ::close(Child.PipeFd);
    size_t Tab = Line.find('\t');
    size_t Nl = Line.find('\n');
    std::string Verdict =
        Tab == std::string::npos ? "" : Line.substr(0, Tab);
    std::string Detail =
        Tab == std::string::npos
            ? ""
            : Line.substr(Tab + 1,
                          Nl == std::string::npos ? std::string::npos
                                                  : Nl - Tab - 1);

    if (Child.Killed) {
      E.Reason = BatchExitReason::TimedOut;
      E.Signal = SIGKILL;
      E.Verdict = "timeout";
      E.Detail = "killed after exceeding " +
                 std::to_string(Opts.TimeoutMs) + " ms wall-clock timeout";
      Report.Timeouts++;
      return;
    }
    if (WIFSIGNALED(Status)) {
      E.Reason = BatchExitReason::Signaled;
      E.Signal = WTERMSIG(Status);
      E.Verdict = "crash";
      E.Detail = std::string("killed by signal ") +
                 strsignal(WTERMSIG(Status));
      Report.Crashes++;
      return;
    }
    E.Reason = BatchExitReason::Exited;
    E.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
    E.Verdict = Verdict.empty() ? "unknown" : Verdict;
    E.Detail = Detail;
    switch (E.ExitCode) {
    case SessionExitComplete:
      Report.Complete++;
      break;
    case SessionExitFindings:
      Report.Findings++;
      break;
    case SessionExitUsage:
      Report.UsageErrors++;
      break;
    default:
      Report.InternalErrors++;
      break;
    }
  };

  while (Next < Files.size() || !Running.empty()) {
    while (Next < Files.size() && Running.size() < Jobs) {
      if (!Spawn(Next)) {
        // Could not fork: report the file as an internal error rather
        // than dropping it, and stop trying to add load.
        BatchEntry &E = Report.Entries[Next];
        E.Reason = BatchExitReason::Exited;
        E.ExitCode = SessionExitInternal;
        E.Verdict = "internal-error";
        E.Detail = std::string("fork/pipe failed: ") + std::strerror(errno);
        Report.InternalErrors++;
      }
      ++Next;
    }
    if (Running.empty())
      continue;

    int Status = 0;
    struct rusage Ru;
    std::memset(&Ru, 0, sizeof(Ru));
    pid_t Pid = ::wait4(-1, &Status, WNOHANG, &Ru);
    if (Pid > 0) {
      Reap(Pid, Status, Ru);
      continue;
    }

    // Nothing exited: enforce the wall-clock timeout, then yield briefly.
    if (Opts.TimeoutMs) {
      std::uint64_t Now = nowMs();
      for (auto &[ChildPid, Child] : Running) {
        if (!Child.Killed && Now - Child.StartMs > Opts.TimeoutMs) {
          Child.Killed = true;
          ::kill(ChildPid, SIGKILL);
        }
      }
    }
    ::usleep(2000);
  }
  return Report;
}

std::string csdf::batchEntryJson(const BatchEntry &E) {
  std::ostringstream OS;
  OS << "{\"file\": \"" << jsonEscape(E.File) << "\", \"verdict\": \""
     << jsonEscape(E.Verdict) << "\", \"exit_reason\": \""
     << batchExitReasonName(E.Reason) << "\", \"exit_code\": " << E.ExitCode
     << ", \"signal\": " << E.Signal << ", \"detail\": \""
     << jsonEscape(E.Detail) << "\", \"wall_ms\": " << E.WallMs
     << ", \"peak_rss_kb\": " << E.PeakRssKb << "}";
  return OS.str();
}

std::string BatchReport::json() const {
  std::ostringstream OS;
  OS << "{\n  \"summary\": {\"files\": " << Entries.size()
     << ", \"complete\": " << Complete << ", \"findings\": " << Findings
     << ", \"usage_errors\": " << UsageErrors
     << ", \"internal_errors\": " << InternalErrors
     << ", \"crashes\": " << Crashes << ", \"timeouts\": " << Timeouts
     << "},\n  \"files\": [\n";
  for (size_t I = 0; I < Entries.size(); ++I)
    OS << "    " << batchEntryJson(Entries[I])
       << (I + 1 < Entries.size() ? ",\n" : "\n");
  OS << "  ]\n}\n";
  return OS.str();
}
