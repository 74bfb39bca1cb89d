// DatagramMux: singleton and frame datagrams between two real UDP sockets,
// learned-peer reply addressing, endpoint parsing, exclusive ports.
#include "runtime/datagram_mux.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "core/messages.h"
#include "runtime/epoll_loop.h"

namespace fabec::runtime {
namespace {

core::OrderReq make_order(StripeId stripe, core::OpId op) {
  core::OrderReq req;
  req.stripe = stripe;
  req.op = op;
  req.ts = Timestamp{7, 1};
  return req;
}

TEST(DatagramMuxTest, ParseEndpoint) {
  const auto ep = parse_endpoint("10.1.2.3:4567");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->addr, "10.1.2.3");
  EXPECT_EQ(ep->port, 4567);
  EXPECT_FALSE(parse_endpoint("10.1.2.3").has_value());
  EXPECT_FALSE(parse_endpoint("not-an-ip:123").has_value());
  EXPECT_FALSE(parse_endpoint("10.1.2.3:99999").has_value());
  EXPECT_FALSE(parse_endpoint("10.1.2.3:x").has_value());
}

TEST(DatagramMuxTest, SecondBindOfALivePortDies) {
  // Ports are exclusive: a second socket on a live mux's port would take
  // its unicast traffic, so the bind must fail loudly instead.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EpollLoop loop;
  DatagramMux live(&loop, 1, Endpoint{"127.0.0.1", 0},
                   [](ProcessId, std::vector<core::Message>) {});
  const std::uint16_t port = live.local_port();
  EXPECT_DEATH(
      {
        EpollLoop other;
        DatagramMux squatter(&other, 2, Endpoint{"127.0.0.1", port},
                             [](ProcessId, std::vector<core::Message>) {});
      },
      "UDP bind failed");
}

class DatagramMuxPairTest : public testing::Test {
 protected:
  // Two muxes (ids 1 and 2) on one loop; only mux2 knows mux1's address
  // statically — mux1 must learn mux2's from received datagrams.
  void SetUp() override {
    mux1_ = std::make_unique<DatagramMux>(
        &loop_, 1, Endpoint{"127.0.0.1", 0},
        [this](ProcessId from, std::vector<core::Message> msgs) {
          for (auto& m : msgs) at1_.push_back({from, std::move(m)});
          if (expect1_ && at1_.size() >= *expect1_) {
            expect1_.reset();
            got1_.set_value();
          }
        });
    mux2_ = std::make_unique<DatagramMux>(
        &loop_, 2, Endpoint{"127.0.0.1", 0},
        [this](ProcessId from, std::vector<core::Message> msgs) {
          for (auto& m : msgs) at2_.push_back({from, std::move(m)});
          if (expect2_ && at2_.size() >= *expect2_) {
            expect2_.reset();
            got2_.set_value();
          }
        });
    mux2_->set_peer(1, Endpoint{"127.0.0.1", mux1_->local_port()});
    loop_.start();
  }

  void TearDown() override {
    loop_.run_sync([&] {
      mux1_.reset();
      mux2_.reset();
    });
    loop_.stop();
  }

  EpollLoop loop_;
  std::unique_ptr<DatagramMux> mux1_, mux2_;
  std::vector<std::pair<ProcessId, core::Message>> at1_, at2_;
  std::optional<std::size_t> expect1_, expect2_;
  std::promise<void> got1_, got2_;
};

TEST_F(DatagramMuxPairTest, SingletonRoundTripWithLearnedReplyAddress) {
  expect1_ = 1;
  expect2_ = 1;
  loop_.run_sync([&] {
    ASSERT_TRUE(mux2_->send(1, core::Message{make_order(5, 100)}));
  });
  got2_ = {};  // mux2 waits for the reply below
  got1_.get_future().wait();

  loop_.run_sync([&] {
    ASSERT_EQ(at1_.size(), 1u);
    EXPECT_EQ(at1_[0].first, 2u);
    EXPECT_EQ(std::get<core::OrderReq>(at1_[0].second).op, 100u);
    // mux1 has no static entry for peer 2: this reply can only route via
    // the address learned from the datagram just received.
    core::OrderRep rep;
    rep.op = 100;
    rep.status = true;
    ASSERT_TRUE(mux1_->send(2, core::Message{rep}));
  });
  got2_.get_future().wait();
  loop_.run_sync([&] {
    ASSERT_EQ(at2_.size(), 1u);
    EXPECT_EQ(at2_[0].first, 1u);
    EXPECT_TRUE(std::get<core::OrderRep>(at2_[0].second).status);
  });
}

TEST_F(DatagramMuxPairTest, SendToUnknownPeerFailsWithoutCrashing) {
  loop_.run_sync([&] {
    EXPECT_FALSE(mux1_->send(9, core::Message{make_order(1, 1)}));
    EXPECT_EQ(mux1_->stats().send_failures, 1u);
  });
}

TEST_F(DatagramMuxPairTest, FrameCarriesManyMessagesInOrder) {
  constexpr std::size_t kCount = 40;
  expect1_ = kCount;
  loop_.run_sync([&] {
    std::vector<core::Message> batch;
    for (std::size_t i = 0; i < kCount; ++i)
      batch.push_back(core::Message{make_order(i, 1000 + i)});
    ASSERT_TRUE(mux2_->send_frame(1, batch));
    EXPECT_GE(mux2_->stats().frames_sent, 1u);
  });
  got1_.get_future().wait();
  loop_.run_sync([&] {
    ASSERT_EQ(at1_.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(at1_[i].first, 2u);
      EXPECT_EQ(std::get<core::OrderReq>(at1_[i].second).op, 1000 + i);
    }
    // Fewer datagrams than messages: framing actually coalesced.
    EXPECT_LT(mux1_->stats().datagrams_received,
              mux1_->stats().messages_received);
  });
}

TEST_F(DatagramMuxPairTest, OversizedFrameSplitsAcrossDatagrams) {
  // Blocks big enough that 40 WriteReqs cannot share one 63 KiB datagram.
  constexpr std::size_t kCount = 40;
  expect1_ = kCount;
  loop_.run_sync([&] {
    std::vector<core::Message> batch;
    for (std::size_t i = 0; i < kCount; ++i) {
      core::WriteReq req;
      req.stripe = i;
      req.op = 2000 + i;
      req.ts = Timestamp{9, 2};
      req.block = Block(4096, static_cast<std::uint8_t>(i));
      batch.push_back(core::Message{std::move(req)});
    }
    ASSERT_TRUE(mux2_->send_frame(1, batch));
    EXPECT_GT(mux2_->stats().datagrams_sent, 1u);
  });
  got1_.get_future().wait();
  loop_.run_sync([&] {
    ASSERT_EQ(at1_.size(), kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
      const auto& req = std::get<core::WriteReq>(at1_[i].second);
      EXPECT_EQ(req.op, 2000 + i);
      EXPECT_EQ(req.block, Block(4096, static_cast<std::uint8_t>(i)));
    }
  });
}

}  // namespace
}  // namespace fabec::runtime
