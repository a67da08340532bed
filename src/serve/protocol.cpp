#include "serve/protocol.hpp"

#include <cerrno>

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "util/numeric.hpp"

namespace moela::serve {

LineReader::ReadResult LineReader::read_line_for(std::string& out,
                                                 int timeout_ms) {
  for (;;) {
    // Scan only bytes not inspected by a previous pass.
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      out.assign(buffer_, 0, newline);
      if (!out.empty() && out.back() == '\r') out.pop_back();
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return ReadResult::kLine;
    }
    scanned_ = buffer_.size();
    if (buffer_.size() > max_line_bytes_) {
      return ReadResult::kClosed;  // oversized line
    }
    if (timeout_ms >= 0) {
      pollfd poller{};
      poller.fd = fd_;
      poller.events = POLLIN;
      int ready;
      do {
        ready = ::poll(&poller, 1, timeout_ms);
      } while (ready < 0 && errno == EINTR);
      if (ready == 0) return ReadResult::kTimeout;
      if (ready < 0) return ReadResult::kClosed;
    }
    char chunk[65536];
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return ReadResult::kClosed;  // EOF/error ends the conversation
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool send_line(int fd, std::string line) {
  line += '\n';
  std::size_t sent = 0;
  while (sent < line.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as an error return, not
    // kill the daemon with SIGPIPE.
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool parse_host_port(const std::string& spec, std::string& host, int& port) {
  host = "127.0.0.1";
  port = kDefaultPort;
  if (spec.empty()) return true;
  const std::size_t colon = spec.rfind(':');
  std::string host_part, port_part;
  if (colon == std::string::npos) {
    // Bare token: all digits reads as a port, anything else as a host.
    if (spec.find_first_not_of("0123456789") == std::string::npos) {
      port_part = spec;
    } else {
      host_part = spec;
    }
  } else {
    host_part = spec.substr(0, colon);
    port_part = spec.substr(colon + 1);
  }
  if (!host_part.empty()) host = host_part;
  if (!port_part.empty()) {
    std::uint64_t parsed = 0;
    if (!util::parse_u64(port_part, parsed) || parsed > 65535) {
      return false;
    }
    port = static_cast<int>(parsed);
  }
  return true;
}

util::Json make_error(std::uint64_t id, const std::string& message) {
  util::Json out = util::Json::object();
  out.set("id", id).set("ok", false).set("error", message);
  return out;
}

util::Json make_ok(std::uint64_t id) {
  util::Json out = util::Json::object();
  out.set("id", id).set("ok", true);
  return out;
}

}  // namespace moela::serve
