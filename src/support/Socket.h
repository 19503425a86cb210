//===- support/Socket.h - Unix-socket transport primitives ----------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place csdf touches AF_UNIX addresses. `csdf serve --socket`,
/// `csdf router` and `csdf client` all speak one JSON line per request
/// over a stream socket; these primitives set the socket up and move
/// whole lines over it. A TCP transport would slot in here.
///
/// Every write goes through sendAll, which suppresses SIGPIPE per call:
/// a peer that hangs up early surfaces as a failed write, never as a
/// signal that kills the process.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_SUPPORT_SOCKET_H
#define CSDF_SUPPORT_SOCKET_H

#include <string>

namespace csdf {

/// Connects to the stream socket at \p Path. Returns the descriptor, or
/// -1 when the path is empty or too long or the connect fails.
int connectUnix(const std::string &Path);

/// Binds a stream socket at \p Path (unlinking a stale one first) and
/// listens on it. Returns the descriptor, or -1 with \p Error set to a
/// one-line message ("socket path too long: '<path>'", "socket: <why>"
/// or "cannot listen on '<path>': <why>").
int listenUnix(const std::string &Path, std::string &Error);

/// Writes all of \p Data; false once a write fails (the peer is gone).
bool sendAll(int Fd, const std::string &Data);

/// Reads up to the first newline and stores the line without it in
/// \p Line; bytes after the newline are dropped. False on EOF or an
/// error before a full line.
bool readLine(int Fd, std::string &Line);

/// One request-response round trip on a fresh connection: connects to
/// \p Path, sends \p Request plus a newline and reads one response line.
/// False on any transport failure.
bool exchangeLine(const std::string &Path, const std::string &Request,
                  std::string &Response);

} // namespace csdf

#endif // CSDF_SUPPORT_SOCKET_H
