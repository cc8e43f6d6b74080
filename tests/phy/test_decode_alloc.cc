// Counting-allocator proof that the hot decode path is allocation-free.
//
// This TU overrides global operator new/delete with counting shims (the
// reason it lives in its own test binary) and asserts that, once a
// DecodeWorkspace is warm, LdpcCode::decode_into performs ZERO heap
// allocations per decode.
// That is the contract that lets the PHY decode every uplink TB of a
// 10-second run without touching the allocator.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "phy/ldpc.h"

namespace {
// Plain counter; the simulation and tests are single-threaded.
std::size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc{};
  }
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace slingshot {
namespace {

// BPSK/AWGN channel LLRs for a random codeword; noise sigma 0 gives a
// clean channel whose hard decisions satisfy every check.
std::vector<float> make_llrs(const LdpcCode& code, RngStream& rng,
                             double sigma) {
  std::vector<std::uint8_t> info(std::size_t(code.k()));
  for (auto& b : info) {
    b = std::uint8_t(rng.next_u64() & 1U);
  }
  const auto cw = code.encode(info);
  std::vector<float> llrs(cw.size());
  for (std::size_t i = 0; i < cw.size(); ++i) {
    const double x = cw[i] ? -1.0 : 1.0;
    llrs[i] = float(2.0 * (x + rng.gaussian(0.0, sigma)) / 0.25);
  }
  return llrs;
}

std::vector<float> make_noisy_llrs(const LdpcCode& code, RngStream& rng) {
  return make_llrs(code, rng, 0.5);
}

// Warm `ws` with inputs[0], then count allocations across decoding all
// of `inputs`.
std::size_t warm_decode_allocations(
    const LdpcCode& code, const std::vector<std::vector<float>>& inputs) {
  LdpcCode::DecodeWorkspace ws;
  (void)code.decode_into(inputs[0], 8, ws);
  const std::size_t before = g_alloc_count;
  for (const auto& llrs : inputs) {
    (void)code.decode_into(llrs, 8, ws);
  }
  return g_alloc_count - before;
}

TEST(DecodeAlloc, WarmWorkspaceDecodeIsAllocationFree) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{2024}.stream("alloc");

  // Pre-generate inputs; the first decode sizes the scratch vectors.
  std::vector<std::vector<float>> inputs;
  inputs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(make_noisy_llrs(code, rng));
  }
  const std::size_t allocations = warm_decode_allocations(code, inputs);
  EXPECT_EQ(allocations, 0U)
      << "decode_into allocated " << allocations << " times across "
      << inputs.size() << " warm decodes";
}

// Clean-channel decodes take the zero-syndrome exit; interleaved with
// noisy ones, neither path may touch the allocator once a noisy decode
// has warmed the workspace.
TEST(DecodeAlloc, ZeroSyndromeExitIsAllocationFree) {
  const auto& code = LdpcCode::standard();
  auto rng = RngRegistry{2025}.stream("alloc-clean");
  std::vector<std::vector<float>> inputs;
  inputs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(make_llrs(code, rng, i % 2 == 0 ? 0.5 : 0.0));
  }
  std::vector<std::uint8_t> hard(inputs[1].size());
  for (std::size_t i = 0; i < hard.size(); ++i) {
    hard[i] = inputs[1][i] < 0.0F ? 1 : 0;
  }
  ASSERT_TRUE(code.check_parity(hard));
  EXPECT_EQ(warm_decode_allocations(code, inputs), 0U);
}

// An irregular-degree code (checks of degree 7 and 8) pads its check
// groups; the padded slab must warm up like the regular one.
TEST(DecodeAlloc, IrregularCodeDecodeIsAllocationFree) {
  const LdpcCode code{100, 40, 0xC0DE};
  auto rng = RngRegistry{2026}.stream("alloc-irregular");
  std::vector<std::vector<float>> inputs;
  inputs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(make_noisy_llrs(code, rng));
  }
  EXPECT_EQ(warm_decode_allocations(code, inputs), 0U);
}

}  // namespace
}  // namespace slingshot
