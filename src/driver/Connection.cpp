//===- driver/Connection.cpp ----------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "driver/Connection.h"

#include "api/Wire.h"
#include "support/Socket.h"

#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>

using namespace csdf;

void csdf::serveLines(int Fd, std::size_t MaxRequestBytes,
                      std::atomic<bool> &Shutdown, const LineHandler &Handle) {
  timeval Tv{0, 200000};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));

  std::string Buf;
  char Chunk[4096];
  while (!Shutdown.load()) {
    size_t Nl = Buf.find('\n');
    if (Nl == std::string::npos) {
      if (Buf.size() > MaxRequestBytes + 4096) {
        sendAll(Fd, api::wireError("null", "parse-error",
                                   "request exceeds " +
                                       std::to_string(MaxRequestBytes) +
                                       " bytes",
                                   /*Retryable=*/false) +
                        "\n");
        return;
      }
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N == 0)
        return; // client EOF
      if (N < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
          continue; // timeout: re-check Shutdown
        return;
      }
      Buf.append(Chunk, static_cast<size_t>(N));
      continue;
    }
    std::string Line = Buf.substr(0, Nl);
    Buf.erase(0, Nl + 1);
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    bool WantShutdown = false;
    std::string Resp = Handle(Line, WantShutdown);
    bool Wrote = sendAll(Fd, Resp + "\n");
    if (WantShutdown) {
      Shutdown.store(true);
      return;
    }
    if (!Wrote)
      return;
  }
}

void ConnectionThreads::spawn(std::function<void()> Body) {
  for (auto It = Slots.begin(); It != Slots.end();) {
    if (It->Done.load()) {
      It->Thread.join();
      It = Slots.erase(It);
    } else {
      ++It;
    }
  }
  Slot &S = Slots.emplace_back();
  S.Thread = std::thread([&S, Body = std::move(Body)] {
    Body();
    S.Done.store(true);
  });
}

void ConnectionThreads::joinAll() {
  for (Slot &S : Slots)
    S.Thread.join();
  Slots.clear();
}
