#include "runtime/datagram_mux.h"

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/check.h"
#include "common/serde.h"
#include "core/frame.h"
#include "core/wire.h"

namespace fabec::runtime {
namespace {

// A [u32 from][u32 to] envelope, and a datagram budget under the 64 KB UDP
// ceiling.
constexpr std::size_t kEnvelopeBytes = 8;
constexpr std::size_t kMaxDatagram = 63 * 1024;

std::optional<sockaddr_in> to_sockaddr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.addr.c_str(), &addr.sin_addr) != 1)
    return std::nullopt;
  return addr;
}

}  // namespace

std::optional<Endpoint> parse_endpoint(const std::string& text) {
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size())
    return std::nullopt;
  Endpoint ep;
  ep.addr = text.substr(0, colon);
  unsigned long port = 0;
  const std::string port_text = text.substr(colon + 1);
  for (char c : port_text) {
    if (c < '0' || c > '9') return std::nullopt;
    port = port * 10 + static_cast<unsigned long>(c - '0');
    if (port > 65535) return std::nullopt;
  }
  ep.port = static_cast<std::uint16_t>(port);
  if (!to_sockaddr(ep).has_value()) return std::nullopt;  // not a dotted quad
  return ep;
}

DatagramMux::DatagramMux(EpollLoop* loop, ProcessId self,
                         const Endpoint& listen, Handler handler)
    : loop_(loop),
      self_(self),
      handler_(std::move(handler)),
      recv_buffer_(kMaxDatagram) {
  FABEC_CHECK(loop != nullptr && handler_ != nullptr);
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  FABEC_CHECK_MSG(fd_ >= 0, "UDP socket creation failed");
  // Bursts from n coordinating clients can outrun the loop; ask for a few
  // MB of socket buffer so the kernel absorbs them (clamped to rmem_max).
  const int buf = 4 * 1024 * 1024;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  // The port is exclusive: no SO_REUSEADDR, which on Linux lets a second
  // live UDP socket bind it and take its unicast traffic. UDP has no
  // TIME_WAIT, so a restarted brick rebinds its reaped predecessor's port.
  const auto addr = to_sockaddr(listen);
  FABEC_CHECK_MSG(addr.has_value(), "listen address is not a dotted quad");
  FABEC_CHECK_MSG(::bind(fd_, reinterpret_cast<const sockaddr*>(&*addr),
                         sizeof *addr) == 0,
                  "UDP bind failed (address in use?)");
  loop_->add_fd(fd_, [this] { on_readable(); });
}

DatagramMux::~DatagramMux() {
  // The loop may already be stopped (owner stops before member teardown);
  // remove_fd is only legal pre-run or on the loop thread, so skip it when
  // the loop no longer runs — closing the fd detaches it from epoll anyway.
  if (loop_->on_loop_thread()) loop_->remove_fd(fd_);
  ::close(fd_);
}

std::uint16_t DatagramMux::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  FABEC_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
              0);
  return ntohs(addr.sin_port);
}

void DatagramMux::set_peer(ProcessId peer, const Endpoint& ep) {
  const auto addr = to_sockaddr(ep);
  FABEC_CHECK_MSG(addr.has_value(), "peer address is not a dotted quad");
  static_peers_[peer] = *addr;
}

void DatagramMux::set_peers(const std::map<ProcessId, Endpoint>& peers) {
  for (const auto& [peer, ep] : peers) set_peer(peer, ep);
}

const sockaddr_in* DatagramMux::address_of(ProcessId peer) const {
  // Learned addresses win: they are fresher (a restarted peer's new port, a
  // client's ephemeral socket); static entries are the bootstrap.
  if (const auto learned = learned_peers_.find(peer);
      learned != learned_peers_.end())
    return &learned->second;
  if (const auto fixed = static_peers_.find(peer);
      fixed != static_peers_.end())
    return &fixed->second;
  return nullptr;
}

bool DatagramMux::send_datagram(ProcessId to, const Bytes& datagram) {
  const sockaddr_in* addr = address_of(to);
  if (addr == nullptr) {
    ++stats_.send_failures;
    return false;
  }
  const ssize_t sent =
      ::sendto(fd_, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(addr), sizeof *addr);
  if (sent != static_cast<ssize_t>(datagram.size())) {
    ++stats_.send_failures;
    return false;
  }
  ++stats_.datagrams_sent;
  return true;
}

bool DatagramMux::send(ProcessId to, const core::Message& msg) {
  FABEC_CHECK(loop_->on_loop_thread());
  Bytes datagram = send_buffers_.acquire();
  ByteWriter writer(datagram);
  writer.put_u32(self_);
  writer.put_u32(to);
  core::encode_message_into(msg, datagram);
  FABEC_CHECK_MSG(datagram.size() <= kMaxDatagram,
                  "block size too large for the UDP transport");
  const bool ok = send_datagram(to, datagram);
  if (ok) ++stats_.messages_sent;
  send_buffers_.release(std::move(datagram));
  return ok;
}

bool DatagramMux::send_frame(ProcessId to,
                             const std::vector<core::Message>& msgs) {
  FABEC_CHECK(loop_->on_loop_thread());
  FABEC_CHECK(!msgs.empty());
  if (msgs.size() == 1) return send(to, msgs.front());
  Bytes datagram = send_buffers_.acquire();
  bool ok = true;
  std::size_t i = 0;
  while (i < msgs.size()) {
    datagram.clear();
    ByteWriter writer(datagram);
    writer.put_u32(self_);
    writer.put_u32(to);
    core::FrameBuilder builder(datagram);
    // Greedy fill: evict the message that would overflow and start the
    // next fragment with it.
    while (i < msgs.size()) {
      const std::size_t mark = builder.mark();
      builder.add(msgs[i]);
      if (builder.count() > 1 && datagram.size() + 4 > kMaxDatagram) {
        builder.rewind(mark);
        break;
      }
      ++i;
    }
    builder.finish();
    FABEC_CHECK_MSG(datagram.size() <= kMaxDatagram,
                    "block size too large for the UDP transport");
    const std::uint32_t packed = builder.count();
    if (send_datagram(to, datagram)) {
      stats_.messages_sent += packed;
      if (packed > 1) ++stats_.frames_sent;
    } else {
      ok = false;
    }
  }
  send_buffers_.release(std::move(datagram));
  return ok;
}

void DatagramMux::on_readable() {
  // Drain everything the kernel buffered: epoll is level-triggered, but one
  // recvfrom per wakeup would cost a full loop iteration per datagram.
  while (true) {
    sockaddr_in source{};
    socklen_t source_len = sizeof source;
    const ssize_t got = ::recvfrom(fd_, recv_buffer_.data(),
                                   recv_buffer_.size(), MSG_DONTWAIT,
                                   reinterpret_cast<sockaddr*>(&source),
                                   &source_len);
    if (got < 0) return;  // EAGAIN: drained (or transient error; epoll re-arms)
    if (got < static_cast<ssize_t>(kEnvelopeBytes)) {
      ++stats_.rejected;
      continue;
    }
    ByteReader reader(recv_buffer_.data(), static_cast<std::size_t>(got));
    std::uint32_t from = 0, to = 0;
    FABEC_CHECK(reader.get_u32(&from) && reader.get_u32(&to));
    if (to != self_) {  // misaddressed datagram
      ++stats_.rejected;
      continue;
    }
    const std::uint8_t* body = recv_buffer_.data() + kEnvelopeBytes;
    const std::size_t body_size = static_cast<std::size_t>(got) -
                                  kEnvelopeBytes;
    std::vector<core::Message> msgs;
    if (core::looks_like_frame(body, body_size)) {
      auto frame = core::decode_frame(body, body_size);
      if (!frame.has_value()) {  // corrupt: the CRC turned it into a drop
        ++stats_.rejected;
        continue;
      }
      msgs = std::move(*frame);
    } else {
      auto msg = core::decode_message(body, body_size);
      if (!msg.has_value()) {
        ++stats_.rejected;
        continue;
      }
      msgs.push_back(std::move(*msg));
    }
    // Remember where `from` talks from — the return path for clients and
    // restarted peers. (A decoded envelope vouches for the id; a spoofed
    // CRC-valid datagram is outside the fault model, as in §2.)
    learned_peers_[from] = source;
    ++stats_.datagrams_received;
    stats_.messages_received += msgs.size();
    handler_(from, std::move(msgs));
  }
}

}  // namespace fabec::runtime
