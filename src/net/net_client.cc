#include "src/net/net_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace tsdm {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string("net client: ") + what + ": " +
                          strerror(errno));
}

Status WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

}  // namespace

NetClient& NetClient::operator=(NetClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
    next_request_id_ = other.next_request_id_;
    parser_ = std::move(other.parser_);
    pending_ = std::move(other.pending_);
    pending_head_ = other.pending_head_;
    other.pending_head_ = 0;
  }
  return *this;
}

Status NetClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("net client: connected");
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("net client: bad IPv4 address: " + host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return Errno("connect");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

void NetClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  pending_.clear();
  pending_head_ = 0;
}

Status NetClient::SendRaw(const uint8_t* data, size_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("net client: not connected");
  return WriteAll(fd_, data, size);
}

Status NetClient::ReceiveFrame(NetFrame* out) {
  if (fd_ < 0) return Status::FailedPrecondition("net client: not connected");
  while (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
    uint8_t buf[16 * 1024];
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      parser_.Consume(buf, static_cast<size_t>(n), &pending_);
      continue;
    }
    if (n == 0) {
      return Status::DataLoss("net client: connection closed by server");
    }
    if (errno == EINTR) continue;
    return Errno("recv");
  }
  *out = std::move(pending_[pending_head_++]);
  return Status::OK();
}

Status NetClient::Ping() {
  if (fd_ < 0) return Status::FailedPrecondition("net client: not connected");
  const uint64_t id = next_request_id_++;
  std::vector<uint8_t> frame;
  EncodeNetFrame(id, NetOpcode::kPing, nullptr, 0, &frame);
  TSDM_RETURN_IF_ERROR(WriteAll(fd_, frame.data(), frame.size()));
  NetFrame reply;
  TSDM_RETURN_IF_ERROR(ReceiveFrame(&reply));
  if (reply.request_id != id) {
    return Status::Internal("net client: ping answered with wrong id");
  }
  if (static_cast<NetOpcode>(reply.opcode) != NetOpcode::kPong) {
    return Status::Internal("net client: ping answered with wrong opcode");
  }
  return Status::OK();
}

Status NetClient::SendQuery(const RouteQuery& query, uint64_t* request_id) {
  return SendQuery(query, QueryOptions(), request_id);
}

Status NetClient::SendQuery(const RouteQuery& query,
                            const QueryOptions& options,
                            uint64_t* request_id) {
  if (fd_ < 0) return Status::FailedPrecondition("net client: not connected");
  const uint64_t id = next_request_id_++;
  std::vector<uint8_t> payload;
  EncodeRouteQueryPayloadEx(query, options.priority, options.tenant_id,
                            &payload);
  std::vector<uint8_t> frame;
  EncodeNetFrame(id, NetOpcode::kRouteQuery, payload.data(), payload.size(),
                 &frame);
  TSDM_RETURN_IF_ERROR(WriteAll(fd_, frame.data(), frame.size()));
  if (request_id != nullptr) *request_id = id;
  return Status::OK();
}

Status NetClient::ReceiveAnswer(uint64_t* request_id, WireRouteAnswer* out) {
  NetFrame reply;
  TSDM_RETURN_IF_ERROR(ReceiveFrame(&reply));
  if (request_id != nullptr) *request_id = reply.request_id;
  switch (static_cast<NetOpcode>(reply.opcode)) {
    case NetOpcode::kRouteAnswer:
      return DecodeRouteAnswerPayload(reply.payload.data(),
                                      reply.payload.size(), out);
    case NetOpcode::kError: {
      const Status rejected =
          DecodeErrorPayload(reply.payload.data(), reply.payload.size());
      *out = WireRouteAnswer();
      out->status_code = rejected.code();
      return Status::OK();
    }
    default:
      return Status::Internal("net client: unexpected answer opcode");
  }
}

Status NetClient::Query(const RouteQuery& query, WireRouteAnswer* out) {
  return Query(query, QueryOptions(), out);
}

Status NetClient::Query(const RouteQuery& query, const QueryOptions& options,
                        WireRouteAnswer* out) {
  uint64_t sent_id = 0;
  TSDM_RETURN_IF_ERROR(SendQuery(query, options, &sent_id));
  uint64_t got_id = 0;
  TSDM_RETURN_IF_ERROR(ReceiveAnswer(&got_id, out));
  if (got_id != sent_id) {
    return Status::Internal("net client: answer id mismatch");
  }
  return Status::OK();
}

// --- HTTP -----------------------------------------------------------------

Status NetClient::HttpExchange(const std::string& host, uint16_t port,
                               const std::string& request,
                               HttpResponse* out) {
  NetClient conn;
  TSDM_RETURN_IF_ERROR(conn.Connect(host, port));
  TSDM_RETURN_IF_ERROR(
      WriteAll(conn.fd_, reinterpret_cast<const uint8_t*>(request.data()),
               request.size()));
  // Connection: close — read to EOF, then split the response.
  std::string raw;
  while (true) {
    char buf[16 * 1024];
    const ssize_t n = recv(conn.fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      raw.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    return Errno("recv");
  }
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return Status::DataLoss("net client: truncated HTTP response");
  }
  const std::string head = raw.substr(0, head_end);
  out->body = raw.substr(head_end + 4);
  out->headers.clear();
  size_t line_start = 0;
  bool first = true;
  while (line_start <= head.size()) {
    size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(line_start, line_end - line_start);
    if (first) {
      first = false;
      // "HTTP/1.1 200 OK"
      const size_t sp = line.find(' ');
      if (sp == std::string::npos) {
        return Status::DataLoss("net client: bad HTTP status line");
      }
      out->status_code = std::atoi(line.c_str() + sp + 1);
    } else if (!line.empty()) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string name = line.substr(0, colon);
        std::transform(name.begin(), name.end(), name.begin(), [](char c) {
          return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        });
        size_t v = colon + 1;
        while (v < line.size() && line[v] == ' ') ++v;
        out->headers.emplace_back(std::move(name), line.substr(v));
      }
    }
    line_start = line_end + 2;
  }
  return Status::OK();
}

Status NetClient::HttpGet(const std::string& host, uint16_t port,
                          const std::string& target, HttpResponse* out) {
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  return HttpExchange(host, port, request, out);
}

Status NetClient::HttpPost(const std::string& host, uint16_t port,
                           const std::string& target,
                           const std::string& content_type,
                           const std::string& body, HttpResponse* out) {
  const std::string request =
      "POST " + target + " HTTP/1.1\r\nHost: " + host +
      "\r\nContent-Type: " + content_type +
      "\r\nContent-Length: " + std::to_string(body.size()) +
      "\r\nConnection: close\r\n\r\n" + body;
  return HttpExchange(host, port, request, out);
}

}  // namespace tsdm
