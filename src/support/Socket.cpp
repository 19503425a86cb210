//===- support/Socket.cpp -------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace csdf;

namespace {

/// Fills \p Addr for \p Path; false when the path does not fit sun_path.
bool unixAddress(const std::string &Path, sockaddr_un &Addr) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return false;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  return true;
}

} // namespace

int csdf::connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  if (Path.empty() || !unixAddress(Path, Addr))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int csdf::listenUnix(const std::string &Path, std::string &Error) {
  sockaddr_un Addr;
  if (!unixAddress(Path, Addr)) {
    Error = "socket path too long: '" + Path + "'";
    return -1;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 64) != 0) {
    Error = "cannot listen on '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool csdf::sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N =
        ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool csdf::readLine(int Fd, std::string &Line) {
  std::string Buf;
  char Chunk[4096];
  size_t Nl;
  while ((Nl = Buf.find('\n')) == std::string::npos) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N <= 0)
      return false;
    Buf.append(Chunk, static_cast<size_t>(N));
  }
  Line = Buf.substr(0, Nl);
  return true;
}

bool csdf::exchangeLine(const std::string &Path, const std::string &Request,
                        std::string &Response) {
  int Fd = connectUnix(Path);
  if (Fd < 0)
    return false;
  bool Ok = sendAll(Fd, Request + "\n") && readLine(Fd, Response);
  ::close(Fd);
  return Ok;
}
