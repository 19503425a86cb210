//===- tests/support/SocketTest.cpp ---------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// The Unix-socket primitives: listenUnix's error texts (the daemons print
// them verbatim), a line round trip through exchangeLine, and sendAll to
// a peer that has gone away failing instead of raising SIGPIPE.
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include "gtest/gtest.h"

#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace csdf;

namespace {

std::string socketPath(const char *Tag) {
  return "/tmp/csdf-sock-" + std::to_string(::getpid()) + "-" + Tag +
         ".sock";
}

TEST(SocketTest, ListenRejectsATooLongPath) {
  std::string Path = "/tmp/" + std::string(200, 'x');
  std::string Error;
  EXPECT_EQ(listenUnix(Path, Error), -1);
  EXPECT_EQ(Error, "socket path too long: '" + Path + "'");
  EXPECT_EQ(connectUnix(Path), -1);
  EXPECT_EQ(connectUnix(""), -1);
}

TEST(SocketTest, ListenReportsAMissingDirectory) {
  std::string Error;
  EXPECT_EQ(listenUnix("/nonexistent-csdf-dir/s.sock", Error), -1);
  EXPECT_EQ(Error, "cannot listen on '/nonexistent-csdf-dir/s.sock': No "
                   "such file or directory");
}

TEST(SocketTest, ListenReportsAFailedSocketCall) {
  rlimit Old;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &Old), 0);
  rlimit None = Old;
  None.rlim_cur = 0; // every new descriptor fails with EMFILE
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &None), 0);
  std::string Error;
  int Fd = listenUnix(socketPath("emfile"), Error);
  ::setrlimit(RLIMIT_NOFILE, &Old);
  EXPECT_EQ(Fd, -1);
  EXPECT_EQ(Error, "socket: Too many open files");
}

TEST(SocketTest, ExchangeLineRoundTrips) {
  std::string Path = socketPath("echo");
  std::string Error;
  int Listen = listenUnix(Path, Error);
  ASSERT_GE(Listen, 0) << Error;
  std::thread Echo([Listen] {
    int Conn = ::accept(Listen, nullptr, nullptr);
    std::string Line;
    if (Conn >= 0 && readLine(Conn, Line))
      sendAll(Conn, "echo " + Line + "\nignored tail");
    if (Conn >= 0)
      ::close(Conn);
  });
  std::string Response;
  EXPECT_TRUE(exchangeLine(Path, "{\"type\":\"stats\"}", Response));
  Echo.join();
  EXPECT_EQ(Response, "echo {\"type\":\"stats\"}");
  ::close(Listen);
  ::unlink(Path.c_str());
  EXPECT_FALSE(exchangeLine(Path, "x", Response)); // nobody listens
}

TEST(SocketTest, SendToAClosedPeerFailsWithoutSignal) {
  int Pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Pair), 0);
  ::close(Pair[1]);
  // Without MSG_NOSIGNAL this write would raise SIGPIPE and end the test
  // binary.
  EXPECT_FALSE(sendAll(Pair[0], "reply\n"));
  ::close(Pair[0]);
}

} // namespace
