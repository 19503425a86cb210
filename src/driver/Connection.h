//===- driver/Connection.h - Socket connection loop and threads -----------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What `csdf serve --socket` and `csdf router` share above the socket
/// primitives of support/Socket: the per-connection line loop and the
/// bookkeeping of connection threads. Each accept loop stays with its
/// daemon, since only serve has an admission gate and shed draining.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_DRIVER_CONNECTION_H
#define CSDF_DRIVER_CONNECTION_H

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <string>
#include <thread>

namespace csdf {

/// Answers one request line (no trailing newline) and sets its second
/// argument on a shutdown request; ServeServer::handleLine and
/// RouterServer::handleLine have this shape.
using LineHandler =
    std::function<std::string(const std::string &Line, bool &Shutdown)>;

/// Serves one accepted connection with the line protocol until the peer
/// closes, a write fails, a request asks for shutdown (which sets
/// \p Shutdown), or another connection sets \p Shutdown. Reads time out
/// every 200 ms to notice a daemon-wide shutdown. A trailing '\r' is
/// stripped and blank lines are skipped. A runaway line (no newline past
/// \p MaxRequestBytes + 4096 bytes) is answered with a `parse-error` line
/// and the connection dropped, so the daemon never buffers without bound.
void serveLines(int Fd, std::size_t MaxRequestBytes,
                std::atomic<bool> &Shutdown, const LineHandler &Handle);

/// The threads of an accept loop, one per admitted connection. spawn()
/// first joins the threads that have finished, so a long-lived daemon
/// holds one thread stack per open connection, not one per connection it
/// ever served. joinAll() drains every admitted connection before exit.
class ConnectionThreads {
public:
  ConnectionThreads() = default;
  ConnectionThreads(const ConnectionThreads &) = delete;
  ConnectionThreads &operator=(const ConnectionThreads &) = delete;
  ~ConnectionThreads() { joinAll(); }

  /// Joins the finished threads, then runs \p Body on a new thread.
  void spawn(std::function<void()> Body);

  /// Joins every thread.
  void joinAll();

private:
  struct Slot {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };
  std::list<Slot> Slots; // list: a running thread holds its Slot's address
};

} // namespace csdf

#endif // CSDF_DRIVER_CONNECTION_H
