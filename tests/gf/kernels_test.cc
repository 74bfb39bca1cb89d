// Differential tests: every compiled kernel variant against the scalar
// reference, over random coefficients, all lengths 0-300 (covering every
// vector width's tail path), and deliberately unaligned src/dst offsets.
// The buffers carry guard canaries so an out-of-bounds vector store fails
// loudly even without the sanitizer build (and precisely with it).
#include "gf/kernels.h"

#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gf/gf256.h"

namespace fabec::gf {
namespace {

constexpr std::size_t kMaxLen = 300;
constexpr std::size_t kGuard = 32;
constexpr std::uint8_t kCanary = 0xA5;

struct GuardedBuffer {
  // Oversized backing store; payload starts at `offset` to exercise
  // unaligned loads/stores.
  std::vector<std::uint8_t> bytes;
  std::size_t offset;
  std::size_t len;

  GuardedBuffer(Rng& rng, std::size_t offset_in, std::size_t len_in)
      : bytes(kGuard + offset_in + len_in + kGuard, kCanary),
        offset(kGuard + offset_in),
        len(len_in) {
    for (std::size_t i = 0; i < len; ++i)
      bytes[offset + i] = static_cast<std::uint8_t>(rng.next_u64());
  }

  std::uint8_t* data() { return bytes.data() + offset; }
  const std::uint8_t* data() const { return bytes.data() + offset; }

  bool guards_intact() const {
    for (std::size_t i = 0; i < offset; ++i)
      if (bytes[i] != kCanary) return false;
    for (std::size_t i = offset + len; i < bytes.size(); ++i)
      if (bytes[i] != kCanary) return false;
    return true;
  }
};

// Interesting coefficients (the special-cased 0 and 1, small, high-bit,
// all-ones) plus a rotating pseudo-random one per length.
std::vector<std::uint8_t> coefficients(Rng& rng) {
  std::vector<std::uint8_t> cs = {0, 1, 2, 3, 0x80, 0x8e, 0xff};
  cs.push_back(static_cast<std::uint8_t>(rng.next_u64() | 2));
  return cs;
}

class KernelsTest : public ::testing::TestWithParam<const Kernels*> {};

TEST_P(KernelsTest, MulSliceMatchesScalar) {
  const Kernels& k = *GetParam();
  const Kernels& ref = scalar_kernels();
  Rng rng(0x5EED1);
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    const std::size_t soff = rng.next_u64() % 16;
    const std::size_t doff = rng.next_u64() % 16;
    const GuardedBuffer src(rng, soff, len);
    for (std::uint8_t c : coefficients(rng)) {
      GuardedBuffer dst(rng, doff, len);
      std::vector<std::uint8_t> want(len);
      ref.mul_slice(c, src.data(), want.data(), len);
      k.mul_slice(c, src.data(), dst.data(), len);
      ASSERT_EQ(0, std::memcmp(dst.data(), want.data(), len))
          << k.name << " mul_slice c=" << int(c) << " len=" << len;
      ASSERT_TRUE(dst.guards_intact())
          << k.name << " mul_slice overran len=" << len;
    }
  }
}

TEST_P(KernelsTest, MulAddSliceMatchesScalar) {
  const Kernels& k = *GetParam();
  const Kernels& ref = scalar_kernels();
  Rng rng(0x5EED2);
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    const std::size_t soff = rng.next_u64() % 16;
    const std::size_t doff = rng.next_u64() % 16;
    const GuardedBuffer src(rng, soff, len);
    for (std::uint8_t c : coefficients(rng)) {
      GuardedBuffer dst(rng, doff, len);
      std::vector<std::uint8_t> want(dst.data(), dst.data() + len);
      ref.mul_add_slice(c, src.data(), want.data(), len);
      k.mul_add_slice(c, src.data(), dst.data(), len);
      ASSERT_EQ(0, std::memcmp(dst.data(), want.data(), len))
          << k.name << " mul_add_slice c=" << int(c) << " len=" << len;
      ASSERT_TRUE(dst.guards_intact())
          << k.name << " mul_add_slice overran len=" << len;
    }
  }
}

TEST_P(KernelsTest, XorSliceMatchesScalar) {
  const Kernels& k = *GetParam();
  const Kernels& ref = scalar_kernels();
  Rng rng(0x5EED3);
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    const std::size_t soff = rng.next_u64() % 16;
    const std::size_t doff = rng.next_u64() % 16;
    const GuardedBuffer src(rng, soff, len);
    GuardedBuffer dst(rng, doff, len);
    std::vector<std::uint8_t> want(dst.data(), dst.data() + len);
    ref.xor_slice(src.data(), want.data(), len);
    k.xor_slice(src.data(), dst.data(), len);
    ASSERT_EQ(0, std::memcmp(dst.data(), want.data(), len))
        << k.name << " xor_slice len=" << len;
    ASSERT_TRUE(dst.guards_intact()) << k.name << " xor_slice overran";
  }
}

TEST_P(KernelsTest, MulAddMultiMatchesRowByRowReference) {
  const Kernels& k = *GetParam();
  const Kernels& ref = scalar_kernels();
  Rng rng(0x5EED4);
  // Lengths straddling the cache-block chunk matter here too, so go past
  // one 8 KiB chunk boundary in addition to the vector tails.
  const std::size_t lengths[] = {0,    1,    7,   16,  63,   300,
                                 4096, 8191, 8192, 8193, 20000};
  for (std::size_t num_srcs : {0u, 1u, 3u, 7u}) {
    for (std::size_t len : lengths) {
      std::vector<GuardedBuffer> srcs;
      std::vector<const std::uint8_t*> src_ptrs;
      std::vector<std::uint8_t> coeffs;
      for (std::size_t s = 0; s < num_srcs; ++s) {
        srcs.emplace_back(rng, rng.next_u64() % 16, len);
        src_ptrs.push_back(srcs.back().data());
        // Include the special coefficients in rotation.
        const std::uint8_t pool[] = {0, 1, 2, 0x8e,
                                     static_cast<std::uint8_t>(rng.next_u64())};
        coeffs.push_back(pool[s % 5]);
      }
      for (bool accumulate : {false, true}) {
        GuardedBuffer dst(rng, rng.next_u64() % 16, len);
        std::vector<std::uint8_t> want(dst.data(), dst.data() + len);
        // Reference: naive row-by-row scalar accumulation.
        if (!accumulate) std::fill(want.begin(), want.end(), 0);
        for (std::size_t s = 0; s < num_srcs; ++s)
          ref.mul_add_slice(coeffs[s], src_ptrs[s], want.data(), len);
        k.mul_add_multi(coeffs.data(), src_ptrs.data(), num_srcs, dst.data(),
                        len, accumulate);
        ASSERT_EQ(0, std::memcmp(dst.data(), want.data(), len))
            << k.name << " mul_add_multi srcs=" << num_srcs << " len=" << len
            << " accumulate=" << accumulate;
        ASSERT_TRUE(dst.guards_intact())
            << k.name << " mul_add_multi overran len=" << len;
      }
    }
  }
}

TEST_P(KernelsTest, MulSliceInPlaceAllowed) {
  // The contract allows dst == src (used by scale-in-place callers).
  const Kernels& k = *GetParam();
  Rng rng(0x5EED5);
  for (std::size_t len : {0u, 1u, 15u, 16u, 33u, 300u}) {
    GuardedBuffer buf(rng, rng.next_u64() % 16, len);
    std::vector<std::uint8_t> want(len);
    scalar_kernels().mul_slice(0x8e, buf.data(), want.data(), len);
    k.mul_slice(0x8e, buf.data(), buf.data(), len);
    ASSERT_EQ(0, std::memcmp(buf.data(), want.data(), len))
        << k.name << " in-place len=" << len;
    ASSERT_TRUE(buf.guards_intact());
  }
}

std::string KernelName(const ::testing::TestParamInfo<const Kernels*>& info) {
  return info.param->name;
}

}  // namespace

// Print a variant by name, not by address: gtest puts the printed parameter
// into every listed case ("# GetParam() = ..."), and ctest's discovered test
// names carry it, so an address would rename the cases on every build. It
// sits in fabec::gf, outside the anonymous namespace, so argument-dependent
// lookup on Kernels finds it.
void PrintTo(const Kernels* k, std::ostream* os) { *os << k->name; }

namespace {

INSTANTIATE_TEST_SUITE_P(AllCompiledVariants, KernelsTest,
                         ::testing::ValuesIn(compiled_kernels()),
                         KernelName);

TEST(KernelsDispatchTest, DispatchedVariantIsCompiled) {
  const Kernels& chosen = kernels();
  bool found = false;
  for (const Kernels* k : compiled_kernels())
    if (k == &chosen) found = true;
  EXPECT_TRUE(found) << "dispatch selected " << chosen.name
                     << " which is not in compiled_kernels()";
}

TEST(KernelsDispatchTest, ScalarIsAlwaysAvailable) {
  ASSERT_FALSE(compiled_kernels().empty());
  EXPECT_STREQ(compiled_kernels().front()->name, "scalar");
}

TEST(KernelsDispatchTest, Gf256SliceOpsUseDispatchedKernels) {
  // gf::mul_add_slice must agree with the dispatched kernel (and therefore,
  // by the differential suites above, with the scalar reference).
  Rng rng(0x5EED6);
  const std::size_t len = 257;
  GuardedBuffer src(rng, 3, len);
  GuardedBuffer a(rng, 5, len);
  std::vector<std::uint8_t> b(a.data(), a.data() + len);
  mul_add_slice(0x37, src.data(), a.data(), len);
  kernels().mul_add_slice(0x37, src.data(), b.data(), len);
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), len));
}

}  // namespace
}  // namespace fabec::gf
