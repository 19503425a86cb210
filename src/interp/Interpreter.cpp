//===- interp/Interpreter.cpp -------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include "lang/ExprOps.h"
#include "support/Casting.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <tuple>

using namespace csdf;

const char *csdf::runStatusName(RunStatus Status) {
  switch (Status) {
  case RunStatus::Finished:
    return "finished";
  case RunStatus::Deadlock:
    return "deadlock";
  case RunStatus::AssertFailed:
    return "assert-failed";
  case RunStatus::EvalError:
    return "eval-error";
  case RunStatus::StepLimit:
    return "step-limit";
  }
  csdf_unreachable("unhandled RunStatus");
}

std::vector<TraceEvent> RunResult::canonicalTrace() const {
  std::vector<TraceEvent> Sorted = Trace;
  std::sort(Sorted.begin(), Sorted.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              return std::tie(A.Sender, A.Receiver, A.ChannelSeq) <
                     std::tie(B.Sender, B.Receiver, B.ChannelSeq);
            });
  return Sorted;
}

int RoundRobinScheduler::pick(const std::vector<int> &Runnable) {
  assert(!Runnable.empty() && "pick() with no runnable processes");
  for (int Rank : Runnable)
    if (Rank > Last) {
      Last = Rank;
      return Rank;
    }
  Last = Runnable.front();
  return Last;
}

int RandomScheduler::pick(const std::vector<int> &Runnable) {
  assert(!Runnable.empty() && "pick() with no runnable processes");
  // xorshift64*.
  State ^= State >> 12;
  State ^= State << 25;
  State ^= State >> 27;
  std::uint64_t R = State * 0x2545F4914F6CDD1Dull;
  return Runnable[R % Runnable.size()];
}

int LifoScheduler::pick(const std::vector<int> &Runnable) {
  assert(!Runnable.empty() && "pick() with no runnable processes");
  return Runnable.back();
}

namespace {

/// A message in flight.
struct Message {
  std::int64_t Value = 0;
  std::int64_t Tag = 0;
  CfgNodeId SendNode = 0;
  unsigned ChannelSeq = 0;
};

/// One posted non-blocking request.
struct Request {
  bool IsSend = false;
  bool Waited = false;
  CfgNodeId PostNode = 0;
  /// Irecv only: the buffer variable and the source/tag frozen at post
  /// time. Src == -1 encodes the `any` wildcard.
  std::string Var;
  int Src = -1;
  std::int64_t Tag = 0;
};

/// Per-process execution state.
struct ProcState {
  CfgNodeId Node = 0;
  std::map<std::string, std::int64_t> Vars;
  unsigned InputReads = 0;
  bool Blocked = false;
  /// Live request table, keyed by handle name.
  std::map<std::string, Request> Requests;
  /// Handle names in posting order (waitall completes in this order).
  std::vector<std::string> PostOrder;
  /// Buffer variables with an irecv in flight: touching one is a race.
  std::set<std::string> InFlightBuffers;
};

class Machine {
public:
  Machine(const Cfg &Graph, const RunOptions &Opts, Scheduler &Sched)
      : Graph(Graph), Opts(Opts), Sched(Sched) {}

  RunResult run() {
    assert(Opts.NumProcs >= 1 && "need at least one process");
    const int NP = Opts.NumProcs;
    Procs.assign(NP, ProcState());
    Result.Prints.assign(NP, {});
    for (int Rank = 0; Rank < NP; ++Rank) {
      ProcState &P = Procs[Rank];
      P.Node = Graph.entryId();
      P.Vars["id"] = Rank;
      P.Vars["np"] = NP;
      for (const auto &[Name, Value] : Opts.Params)
        P.Vars[Name] = Value;
    }

    std::uint64_t Steps = 0;
    for (;;) {
      std::vector<int> Runnable = runnableRanks();
      if (Runnable.empty())
        return finish();
      if (++Steps > Opts.MaxSteps) {
        Result.Status = RunStatus::StepLimit;
        Result.Error = "step limit exceeded";
        return harvest();
      }
      int Rank = Sched.pick(Runnable);
      if (!step(Rank))
        return harvest();
    }
  }

private:
  std::vector<int> runnableRanks() const {
    std::vector<int> Runnable;
    for (int Rank = 0; Rank < Opts.NumProcs; ++Rank) {
      const ProcState &P = Procs[Rank];
      if (Graph.node(P.Node).isExit())
        continue;
      if (P.Blocked && !recvReady(Rank))
        continue;
      Runnable.push_back(Rank);
    }
    return Runnable;
  }

  /// True if the head of channel \p Src -> \p Rank is a message with tag
  /// \p WantTag. Strict FIFO: only the channel head may match; a tag
  /// mismatch at the head blocks the receiver forever (the tag-mismatch
  /// bug shows up as a deadlock plus a leak).
  bool headMatches(int Src, int Rank, std::int64_t WantTag) const {
    auto It = Channels.find({Src, Rank});
    return It != Channels.end() && !It->second.empty() &&
           It->second.front().Tag == WantTag;
  }

  /// Sender ranks whose channel head is eligible for a wildcard receive on
  /// \p Rank with tag \p WantTag, ascending.
  std::vector<int> eligibleSenders(int Rank, std::int64_t WantTag) const {
    std::vector<int> Eligible;
    for (int Src = 0; Src < Opts.NumProcs; ++Src)
      if (headMatches(Src, Rank, WantTag))
        Eligible.push_back(Src);
    return Eligible;
  }

  /// True if the irecv behind \p R (un-waited) can complete now.
  bool irecvReady(int Rank, const Request &R) const {
    if (R.Src < 0)
      return !eligibleSenders(Rank, R.Tag).empty();
    return headMatches(R.Src, Rank, R.Tag);
  }

  /// True if the blocked receive/wait of \p Rank can complete now.
  bool recvReady(int Rank) const {
    const ProcState &P = Procs[Rank];
    const CfgNode &N = Graph.node(P.Node);
    switch (N.Kind) {
    case CfgNodeKind::Recv: {
      std::int64_t WantTag = 0;
      if (N.Tag) {
        auto Tag = evalIn(Rank, N.Tag);
        if (!Tag)
          return true; // Error path.
        WantTag = *Tag;
      }
      if (!N.Partner) // Wildcard: any eligible channel head unblocks.
        return !eligibleSenders(Rank, WantTag).empty();
      auto Src = evalIn(Rank, N.Partner);
      if (!Src || *Src < 0 || *Src >= Opts.NumProcs)
        return true; // Let step() surface the error.
      return headMatches(static_cast<int>(*Src), Rank, WantTag);
    }
    case CfgNodeKind::Wait: {
      auto It = P.Requests.find(N.Req);
      if (It == P.Requests.end() || It->second.Waited ||
          It->second.IsSend)
        return true; // Error or no-op path; step() handles it.
      return irecvReady(Rank, It->second);
    }
    case CfgNodeKind::Waitall: {
      // Runnable iff some incomplete irecv can make progress (step()
      // completes every ready request, so "nothing ready" means blocked).
      bool AnyIncomplete = false;
      for (const std::string &Name : P.PostOrder) {
        auto It = P.Requests.find(Name);
        if (It == P.Requests.end() || It->second.Waited ||
            It->second.IsSend)
          continue;
        AnyIncomplete = true;
        if (irecvReady(Rank, It->second))
          return true;
      }
      return !AnyIncomplete;
    }
    default:
      csdf_unreachable("blocked on a non-blocking node");
    }
  }

  std::optional<std::int64_t> evalIn(int Rank, const Expr *E) const {
    const ProcState &P = Procs[Rank];
    if (const auto *In = dyn_cast<InputExpr>(E)) {
      (void)In;
      // input() handled by caller via takeInput(); plain eval fails.
    }
    return evalExpr(E, [&P](const std::string &Name) {
      auto It = P.Vars.find(Name);
      return It == P.Vars.end() ? std::optional<std::int64_t>()
                                : std::optional<std::int64_t>(It->second);
    });
  }

  /// Evaluates \p E servicing input() reads from the provider. Only used
  /// where the language allows input() (right-hand sides of assignments and
  /// printed/sent values); partner expressions reject input() in Sema.
  std::optional<std::int64_t> evalWithInput(int Rank, const Expr *E) {
    if (isa<InputExpr>(E))
      return Opts.Input(Rank, Procs[Rank].InputReads++);
    if (const auto *U = dyn_cast<UnaryExpr>(E)) {
      auto V = evalWithInput(Rank, U->operand());
      if (!V)
        return std::nullopt;
      return U->op() == UnaryOp::Neg ? -*V
                                     : static_cast<std::int64_t>(*V == 0);
    }
    if (const auto *B = dyn_cast<BinaryExpr>(E)) {
      if (containsInput(B->lhs()) || containsInput(B->rhs())) {
        auto L = evalWithInput(Rank, B->lhs());
        if (!L)
          return std::nullopt;
        auto R = evalWithInput(Rank, B->rhs());
        if (!R)
          return std::nullopt;
        // Rebuild via a tiny environment trick: evaluate operator on L, R.
        switch (B->op()) {
        case BinaryOp::Add:
          return *L + *R;
        case BinaryOp::Sub:
          return *L - *R;
        case BinaryOp::Mul:
          return *L * *R;
        case BinaryOp::Div:
          return *R == 0 ? std::optional<std::int64_t>() : *L / *R;
        case BinaryOp::Mod:
          return *R == 0 ? std::optional<std::int64_t>() : *L % *R;
        case BinaryOp::Eq:
          return static_cast<std::int64_t>(*L == *R);
        case BinaryOp::Ne:
          return static_cast<std::int64_t>(*L != *R);
        case BinaryOp::Lt:
          return static_cast<std::int64_t>(*L < *R);
        case BinaryOp::Le:
          return static_cast<std::int64_t>(*L <= *R);
        case BinaryOp::Gt:
          return static_cast<std::int64_t>(*L > *R);
        case BinaryOp::Ge:
          return static_cast<std::int64_t>(*L >= *R);
        case BinaryOp::And:
          return static_cast<std::int64_t>(*L != 0 && *R != 0);
        case BinaryOp::Or:
          return static_cast<std::int64_t>(*L != 0 || *R != 0);
        }
        csdf_unreachable("unhandled BinaryOp");
      }
    }
    return evalIn(Rank, E);
  }

  bool fail(RunStatus Status, const std::string &Msg) {
    Result.Status = Status;
    Result.Error = Msg;
    return false;
  }

  /// Returns a variable read by \p E that has an irecv in flight on
  /// \p Rank, if any (a buffer race).
  std::optional<std::string> racyRead(int Rank, const Expr *E) const {
    if (!E || Procs[Rank].InFlightBuffers.empty())
      return std::nullopt;
    std::set<std::string> Vars;
    collectVars(E, Vars);
    for (const std::string &V : Vars)
      if (Procs[Rank].InFlightBuffers.count(V))
        return V;
    return std::nullopt;
  }

  /// Fails with a buffer-race EvalError if any of \p Reads reads, or
  /// \p Write writes, a variable with an irecv in flight on \p Rank.
  /// Returns true if the node is race-free.
  bool checkRaces(int Rank, std::initializer_list<const Expr *> Reads,
                  const std::string &Write = "") {
    ProcState &P = Procs[Rank];
    for (const Expr *E : Reads)
      if (auto V = racyRead(Rank, E))
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) + ": buffer race: '" +
                        *V + "' is read while an irecv into it is in "
                             "flight, at " +
                        Graph.nodeLabel(P.Node));
    if (!Write.empty() && P.InFlightBuffers.count(Write))
      return fail(RunStatus::EvalError,
                  "rank " + std::to_string(Rank) + ": buffer race: '" +
                      Write + "' is written while an irecv into it is in "
                              "flight, at " +
                      Graph.nodeLabel(P.Node));
    return true;
  }

  /// Completes the irecv behind request \p R on \p Rank if a message
  /// matches now: pops it, writes the buffer, unmarks it and records the
  /// trace event (anchored at the posting irecv node). Returns false if
  /// nothing matched (the caller blocks).
  bool completeIrecv(int Rank, Request &R) {
    ProcState &P = Procs[Rank];
    int Src = R.Src;
    if (Src < 0) {
      std::vector<int> Eligible = eligibleSenders(Rank, R.Tag);
      if (Eligible.empty())
        return false;
      if (Eligible.size() > 1)
        Result.NondetWitnesses.push_back({Rank, R.PostNode, Eligible});
      Src = Eligible.front();
    } else if (!headMatches(Src, Rank, R.Tag)) {
      return false;
    }
    auto &Channel = Channels[{Src, Rank}];
    Message Msg = Channel.front();
    Channel.pop_front();
    P.Vars[R.Var] = Msg.Value;
    P.InFlightBuffers.erase(R.Var);
    R.Waited = true;
    Result.Trace.push_back({Src, Rank, Msg.SendNode, R.PostNode, Msg.Value,
                            Msg.Tag, Msg.ChannelSeq});
    return true;
  }

  /// Records the posting of request \p Req at the current node of
  /// \p Rank, reporting a leak if it abandons a still-outstanding
  /// posting.
  void postRequest(int Rank, const std::string &Req, Request R) {
    ProcState &P = Procs[Rank];
    auto It = P.Requests.find(Req);
    if (It != P.Requests.end() && !It->second.Waited) {
      Result.RequestLeaks.push_back({Rank, It->second.PostNode, Req});
      if (!It->second.IsSend)
        P.InFlightBuffers.erase(It->second.Var);
    }
    if (It == P.Requests.end())
      P.PostOrder.push_back(Req);
    P.Requests[Req] = std::move(R);
  }

  /// Executes one node on \p Rank. Returns false to abort the run.
  bool step(int Rank) {
    ProcState &P = Procs[Rank];
    const CfgNode &N = Graph.node(P.Node);
    switch (N.Kind) {
    case CfgNodeKind::Entry:
    case CfgNodeKind::Skip:
      P.Node = Graph.soleSuccessor(P.Node);
      return true;
    case CfgNodeKind::Exit:
      csdf_unreachable("stepping a process at exit");
    case CfgNodeKind::Assign: {
      if (!checkRaces(Rank, {N.Value}, N.Var))
        return false;
      auto V = evalWithInput(Rank, N.Value);
      if (!V)
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) +
                        ": evaluation failed at " + Graph.nodeLabel(P.Node));
      P.Vars[N.Var] = *V;
      P.Node = Graph.soleSuccessor(P.Node);
      return true;
    }
    case CfgNodeKind::Branch: {
      if (!checkRaces(Rank, {N.Cond}))
        return false;
      auto V = evalIn(Rank, N.Cond);
      if (!V)
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) +
                        ": evaluation failed at " + Graph.nodeLabel(P.Node));
      P.Node = Graph.branchSuccessor(P.Node, *V != 0);
      return true;
    }
    case CfgNodeKind::Assume:
    case CfgNodeKind::Assert: {
      if (!checkRaces(Rank, {N.Cond}))
        return false;
      auto V = evalIn(Rank, N.Cond);
      if (!V)
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) +
                        ": evaluation failed at " + Graph.nodeLabel(P.Node));
      if (*V == 0)
        return fail(RunStatus::AssertFailed,
                    "rank " + std::to_string(Rank) + ": " +
                        cfgNodeKindName(N.Kind) + " violated at " +
                        Graph.nodeLabel(P.Node));
      P.Node = Graph.soleSuccessor(P.Node);
      return true;
    }
    case CfgNodeKind::Print: {
      if (!checkRaces(Rank, {N.Value}))
        return false;
      auto V = evalWithInput(Rank, N.Value);
      if (!V)
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) +
                        ": evaluation failed at " + Graph.nodeLabel(P.Node));
      Result.Prints[Rank].push_back(*V);
      P.Node = Graph.soleSuccessor(P.Node);
      return true;
    }
    case CfgNodeKind::Send: {
      if (!checkRaces(Rank, {N.Value, N.Partner, N.Tag}))
        return false;
      auto Dest = evalIn(Rank, N.Partner);
      auto Value = evalWithInput(Rank, N.Value);
      std::optional<std::int64_t> Tag = 0;
      if (N.Tag)
        Tag = evalIn(Rank, N.Tag);
      if (!Dest || !Value || !Tag)
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) +
                        ": evaluation failed at " + Graph.nodeLabel(P.Node));
      if (*Dest < 0 || *Dest >= Opts.NumProcs)
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) +
                        ": send to invalid rank " + std::to_string(*Dest));
      auto &Channel = Channels[{Rank, static_cast<int>(*Dest)}];
      auto &Sent = SentCount[{Rank, static_cast<int>(*Dest)}];
      Channel.push_back({*Value, *Tag, P.Node, Sent++});
      P.Node = Graph.soleSuccessor(P.Node);
      return true;
    }
    case CfgNodeKind::Recv: {
      if (!checkRaces(Rank, {N.Partner, N.Tag}, N.Var))
        return false;
      std::int64_t WantTag = 0;
      if (N.Tag) {
        auto Tag = evalIn(Rank, N.Tag);
        if (!Tag)
          return fail(RunStatus::EvalError,
                      "rank " + std::to_string(Rank) +
                          ": evaluation failed at " +
                          Graph.nodeLabel(P.Node));
        WantTag = *Tag;
      }
      int Src;
      if (!N.Partner) {
        // Wildcard: deliver from the lowest eligible sender; a match with
        // several eligible senders is recorded as nondeterminism.
        std::vector<int> Eligible = eligibleSenders(Rank, WantTag);
        if (Eligible.empty()) {
          P.Blocked = true;
          return true;
        }
        if (Eligible.size() > 1)
          Result.NondetWitnesses.push_back({Rank, P.Node, Eligible});
        Src = Eligible.front();
      } else {
        auto S = evalIn(Rank, N.Partner);
        if (!S)
          return fail(RunStatus::EvalError,
                      "rank " + std::to_string(Rank) +
                          ": evaluation failed at " +
                          Graph.nodeLabel(P.Node));
        if (*S < 0 || *S >= Opts.NumProcs)
          return fail(RunStatus::EvalError,
                      "rank " + std::to_string(Rank) +
                          ": recv from invalid rank " + std::to_string(*S));
        Src = static_cast<int>(*S);
        if (!headMatches(Src, Rank, WantTag)) {
          P.Blocked = true;
          return true;
        }
      }
      auto &Channel = Channels[{Src, Rank}];
      Message Msg = Channel.front();
      Channel.pop_front();
      P.Vars[N.Var] = Msg.Value;
      P.Blocked = false;
      Result.Trace.push_back({Src, Rank, Msg.SendNode, P.Node, Msg.Value,
                              Msg.Tag, Msg.ChannelSeq});
      P.Node = Graph.soleSuccessor(P.Node);
      return true;
    }
    case CfgNodeKind::Isend: {
      if (!checkRaces(Rank, {N.Value, N.Partner, N.Tag}))
        return false;
      auto Dest = evalIn(Rank, N.Partner);
      auto Value = evalWithInput(Rank, N.Value);
      std::optional<std::int64_t> Tag = 0;
      if (N.Tag)
        Tag = evalIn(Rank, N.Tag);
      if (!Dest || !Value || !Tag)
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) +
                        ": evaluation failed at " + Graph.nodeLabel(P.Node));
      if (*Dest < 0 || *Dest >= Opts.NumProcs)
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) +
                        ": isend to invalid rank " + std::to_string(*Dest));
      // The message enters the channel at post time (sends are
      // non-blocking in the model); the request only tracks completion.
      auto &Channel = Channels[{Rank, static_cast<int>(*Dest)}];
      auto &Sent = SentCount[{Rank, static_cast<int>(*Dest)}];
      Channel.push_back({*Value, *Tag, P.Node, Sent++});
      Request R;
      R.IsSend = true;
      R.PostNode = P.Node;
      postRequest(Rank, N.Req, std::move(R));
      P.Node = Graph.soleSuccessor(P.Node);
      return true;
    }
    case CfgNodeKind::Irecv: {
      if (!checkRaces(Rank, {N.Partner, N.Tag}, N.Var))
        return false;
      int Src = -1;
      if (N.Partner) {
        auto S = evalIn(Rank, N.Partner);
        if (!S)
          return fail(RunStatus::EvalError,
                      "rank " + std::to_string(Rank) +
                          ": evaluation failed at " +
                          Graph.nodeLabel(P.Node));
        if (*S < 0 || *S >= Opts.NumProcs)
          return fail(RunStatus::EvalError,
                      "rank " + std::to_string(Rank) +
                          ": irecv from invalid rank " +
                          std::to_string(*S));
        Src = static_cast<int>(*S);
      }
      std::int64_t Tag = 0;
      if (N.Tag) {
        auto T = evalIn(Rank, N.Tag);
        if (!T)
          return fail(RunStatus::EvalError,
                      "rank " + std::to_string(Rank) +
                          ": evaluation failed at " +
                          Graph.nodeLabel(P.Node));
        Tag = *T;
      }
      Request R;
      R.PostNode = P.Node;
      R.Var = N.Var;
      R.Src = Src;
      R.Tag = Tag;
      postRequest(Rank, N.Req, std::move(R));
      P.InFlightBuffers.insert(N.Var);
      P.Node = Graph.soleSuccessor(P.Node);
      return true;
    }
    case CfgNodeKind::Wait: {
      auto It = P.Requests.find(N.Req);
      if (It == P.Requests.end())
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) +
                        ": wait on never-posted request '" + N.Req + "'");
      Request &R = It->second;
      if (R.Waited)
        return fail(RunStatus::EvalError,
                    "rank " + std::to_string(Rank) +
                        ": double wait on request '" + N.Req + "'");
      if (!R.IsSend && !completeIrecv(Rank, R)) {
        P.Blocked = true;
        return true;
      }
      R.Waited = true;
      P.Blocked = false;
      P.Node = Graph.soleSuccessor(P.Node);
      return true;
    }
    case CfgNodeKind::Waitall: {
      bool AllDone = true;
      for (const std::string &Name : P.PostOrder) {
        auto It = P.Requests.find(Name);
        if (It == P.Requests.end() || It->second.Waited)
          continue;
        Request &R = It->second;
        if (R.IsSend || completeIrecv(Rank, R))
          R.Waited = true;
        else
          AllDone = false;
      }
      if (!AllDone) {
        P.Blocked = true;
        return true;
      }
      P.Blocked = false;
      P.Node = Graph.soleSuccessor(P.Node);
      return true;
    }
    }
    csdf_unreachable("unhandled CfgNodeKind");
  }

  /// No process is runnable: either everyone finished or we deadlocked.
  RunResult finish() {
    bool AllDone = true;
    for (int Rank = 0; Rank < Opts.NumProcs; ++Rank) {
      if (!Graph.node(Procs[Rank].Node).isExit()) {
        AllDone = false;
        Result.BlockedRanks.push_back(Rank);
      }
    }
    if (!AllDone) {
      Result.Status = RunStatus::Deadlock;
      Result.Error = "deadlock: " +
                     std::to_string(Result.BlockedRanks.size()) +
                     " process(es) blocked on receives";
    }
    return harvest();
  }

  RunResult harvest() {
    for (auto &[Key, Channel] : Channels)
      for (const Message &Msg : Channel)
        Result.Leaks.push_back(
            {Key.first, Key.second, Msg.SendNode, Msg.Value, Msg.Tag});
    for (int Rank = 0; Rank < static_cast<int>(Procs.size()); ++Rank) {
      const ProcState &P = Procs[Rank];
      for (const std::string &Name : P.PostOrder) {
        auto It = P.Requests.find(Name);
        if (It != P.Requests.end() && !It->second.Waited)
          Result.RequestLeaks.push_back({Rank, It->second.PostNode, Name});
      }
    }
    Result.FinalVars.reserve(Procs.size());
    for (ProcState &P : Procs)
      Result.FinalVars.push_back(std::move(P.Vars));
    return std::move(Result);
  }

  const Cfg &Graph;
  const RunOptions &Opts;
  Scheduler &Sched;
  std::vector<ProcState> Procs;
  std::map<std::pair<int, int>, std::deque<Message>> Channels;
  std::map<std::pair<int, int>, unsigned> SentCount;
  RunResult Result;
};

} // namespace

RunResult csdf::runProgram(const Cfg &Graph, const RunOptions &Opts,
                           Scheduler &Sched) {
  Machine M(Graph, Opts, Sched);
  return M.run();
}

RunResult csdf::runProgram(const Cfg &Graph, const RunOptions &Opts) {
  RoundRobinScheduler Sched;
  return runProgram(Graph, Opts, Sched);
}
