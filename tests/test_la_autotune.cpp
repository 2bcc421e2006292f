// Autotune cache robustness: round-trips, torn writes, corruption, stale
// fingerprints, and the engine's one configuration per ISA, which no cache
// content can change. Everything runs against throwaway paths with a fast
// probe so no test pollutes (or depends on) the real per-user cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/hostinfo.h"
#include "la/autotune.h"
#include "la/microkernel.h"
#include "la/simd.h"
#include "obs/report.h"

namespace xgw::la {
namespace {

AutotuneOptions fast_opts() {
  AutotuneOptions o;
  o.probe_ms = 2.0;
  return o;
}

std::string tmp_cache_path(const char* tag) {
  const ::testing::TestInfo* ti =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + "xgw_autotune_" + ti->name() +
         "_" + tag + ".cache";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class AutotuneCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { isa_ = detected_simd_isa(); }

  // A deterministic, plausible result to write without running the probe.
  AutotuneResult sample() const {
    AutotuneResult r = default_autotune(isa_);
    r.fma_peak_gflops = 12.5;
    return r;
  }

  static void expect_isa_tiling(const AutotuneResult& r, SimdIsa isa) {
    const AutotuneResult d = default_autotune(isa);
    EXPECT_EQ(r.isa, isa);
    EXPECT_EQ(r.mr, d.mr);
    EXPECT_EQ(r.nr, d.nr);
    EXPECT_EQ(r.mc, d.mc);
    EXPECT_EQ(r.kc, d.kc);
    EXPECT_EQ(r.nc, d.nc);
  }

  SimdIsa isa_ = SimdIsa::kScalar;
};

TEST_F(AutotuneCacheTest, SaveLoadRoundTrip) {
  const std::string path = tmp_cache_path("roundtrip");
  const AutotuneResult want = sample();
  save_autotune_cache(path, want);

  AutotuneResult got;
  ASSERT_TRUE(load_autotune_cache(path, isa_, &got));
  expect_isa_tiling(got, isa_);
  EXPECT_DOUBLE_EQ(got.fma_peak_gflops, want.fma_peak_gflops);
  EXPECT_TRUE(got.from_cache);
  std::remove(path.c_str());
}

TEST_F(AutotuneCacheTest, MissingFileIsStaleNotError) {
  AutotuneResult got;
  EXPECT_FALSE(load_autotune_cache(tmp_cache_path("missing"), isa_, &got));
}

TEST_F(AutotuneCacheTest, EmptyFileReportsTruncated) {
  const std::string path = tmp_cache_path("empty");
  spit(path, "");
  AutotuneResult got;
  try {
    load_autotune_cache(path, isa_, &got);
    FAIL() << "empty cache must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIoTruncated) << e.what();
  }
  std::remove(path.c_str());
}

TEST_F(AutotuneCacheTest, GarbageMagicReportsCorrupt) {
  const std::string path = tmp_cache_path("magic");
  spit(path, "not-an-autotune-cache\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n");
  AutotuneResult got;
  try {
    load_autotune_cache(path, isa_, &got);
    FAIL() << "bad magic must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIoCorrupt) << e.what();
  }
  std::remove(path.c_str());
}

TEST_F(AutotuneCacheTest, FlippedByteFailsChecksum) {
  const std::string path = tmp_cache_path("bitflip");
  save_autotune_cache(path, sample());
  std::string bytes = slurp(path);
  ASSERT_FALSE(bytes.empty());
  // Flip a digit inside the payload (not the magic, not the trailing
  // newline) so only the checksum can catch it.
  const std::size_t pos = bytes.find("12.5");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] = '9';
  spit(path, bytes);

  AutotuneResult got;
  try {
    load_autotune_cache(path, isa_, &got);
    FAIL() << "flipped byte must fail the checksum";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIoCorrupt) << e.what();
  }
  std::remove(path.c_str());
}

TEST_F(AutotuneCacheTest, StaleFingerprintIsSilentlyRefused) {
  const std::string path = tmp_cache_path("stale");
  save_autotune_cache(path, sample());
  std::string bytes = slurp(path);
  // Rewrite the key line with a different hex digest of the same length;
  // recompute nothing — a stale key is refused before the checksum runs.
  const std::size_t key = bytes.find("key ");
  ASSERT_NE(key, std::string::npos);
  const std::size_t eol = bytes.find('\n', key);
  bytes.replace(key, eol - key, "key 00000000deadbeef");
  spit(path, bytes);

  AutotuneResult got;
  EXPECT_FALSE(load_autotune_cache(path, isa_, &got))
      << "foreign fingerprint must read as stale, not as damage";
  std::remove(path.c_str());
}

TEST_F(AutotuneCacheTest, TornWriteAtEveryPrefixEitherLoadsOrThrowsIoKind) {
  // Chaos-style sweep: truncate a valid cache at every byte offset. Each
  // prefix must either throw a typed io error, read as stale (a cut inside
  // the key digest yields a well-formed foreign key), or — only when no
  // payload byte is missing (e.g. just the trailing newline) — load with
  // values bit-identical to the intact file. Never crash, never return a
  // half-parsed result.
  const std::string path = tmp_cache_path("torn");
  const AutotuneResult want = sample();
  save_autotune_cache(path, want);
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 20u);
  const std::size_t payload_end = bytes.find_last_not_of('\n') + 1;

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    spit(path, bytes.substr(0, cut));
    AutotuneResult got;
    try {
      const bool ok = load_autotune_cache(path, isa_, &got);
      if (ok) {
        EXPECT_GE(cut, payload_end)
            << "prefix of " << cut << "/" << bytes.size()
            << " bytes parsed as a complete cache";
        expect_isa_tiling(got, isa_);
        EXPECT_DOUBLE_EQ(got.fma_peak_gflops, want.fma_peak_gflops);
      }
    } catch (const Error& e) {
      EXPECT_TRUE(e.kind() == ErrorKind::kIoTruncated ||
                  e.kind() == ErrorKind::kIoCorrupt)
          << "cut=" << cut << ": " << e.what();
    }
  }

  // The intact file still loads after the sweep.
  spit(path, bytes);
  AutotuneResult got;
  EXPECT_TRUE(load_autotune_cache(path, isa_, &got));
  std::remove(path.c_str());
}

TEST_F(AutotuneCacheTest, ResolveRecoversFromDamageAndRewritesCache) {
  const std::string path = tmp_cache_path("resolve");
  spit(path, "xgw-autotune-v2\ntorn");  // damaged: cut mid-file

  const AutotuneResult r = resolve_autotune(path, isa_, fast_opts());
  EXPECT_FALSE(r.from_cache) << "damaged cache must force a re-probe";
  EXPECT_GT(r.fma_peak_gflops, 0.0);
  expect_isa_tiling(r, isa_);

  // The re-probe must have rewritten a valid cache; a second resolve loads.
  const AutotuneResult r2 = resolve_autotune(path, isa_, fast_opts());
  EXPECT_TRUE(r2.from_cache);
  expect_isa_tiling(r2, isa_);
  std::remove(path.c_str());
}

TEST_F(AutotuneCacheTest, ResolvedTileIsTheIsaDefault) {
  const std::string path = tmp_cache_path("fresh");
  const AutotuneResult r = resolve_autotune(path, isa_, fast_opts());
  expect_isa_tiling(r, isa_);
  const MicroKernel k = select_microkernel(r.isa);
  EXPECT_EQ(k.mr, r.mr);
  EXPECT_EQ(k.nr, r.nr);
  std::remove(path.c_str());
}

// A cache written in the previous format (v1), whose sweep could pick any
// compiled tile and tiling, carries 8x8 at KC 256 / NC 512 here. It must read
// as stale, be re-probed and rewritten, and leave the ISA's one configuration
// in place.
TEST_F(AutotuneCacheTest, V1FormatCacheIsReprobedAndNeverChangesTheTile) {
  const std::string path = tmp_cache_path("v1");
  std::vector<std::string> lines{
      "xgw-autotune-v1",
      "key " + obs::fnv1a_hex(cpu_model_name() + "|" + compiler_id() + "|" +
                              simd_isa_name(isa_) + "|v1"),
      std::string("isa ") + simd_isa_name(isa_),
      "mr 8",
      "nr 8",
      "mc 64",
      "kc 256",
      "nc 512",
      "fma_peak_gflops 12.5",
      "best_gflops 7.25"};
  std::string body;
  for (const std::string& l : lines) body += l + "\n";
  spit(path, body + "checksum " + obs::fnv1a_hex(body) + "\n");

  AutotuneResult got;
  EXPECT_FALSE(load_autotune_cache(path, isa_, &got))
      << "a cache of another format is stale, not damage";

  const AutotuneResult r = resolve_autotune(path, isa_, fast_opts());
  EXPECT_FALSE(r.from_cache);
  expect_isa_tiling(r, isa_);

  // The rewrite carries no tile lines, and reloading it keeps the tiling.
  const std::string rewritten = slurp(path);
  for (const char* field : {"\nmr ", "\nnr ", "\nmc ", "\nkc ", "\nnc "})
    EXPECT_EQ(rewritten.find(field), std::string::npos) << field;
  ASSERT_TRUE(load_autotune_cache(path, isa_, &got));
  expect_isa_tiling(got, isa_);
  std::remove(path.c_str());
}

TEST_F(AutotuneCacheTest, DefaultsAreSaneForEveryIsa) {
  // One micro-kernel per ISA, all at MC/KC/NC = 64/128/256: KC fixes the
  // summation order of every engine product, so these numbers pin bits.
  struct Want {
    SimdIsa isa;
    int mr, nr;
  };
#if defined(__x86_64__) && !defined(XGW_DISABLE_SIMD)
  const Want wants[] = {{SimdIsa::kScalar, 4, 8},
                        {SimdIsa::kAvx2, 2, 8},
                        {SimdIsa::kAvx512, 4, 16}};
#else
  const Want wants[] = {{SimdIsa::kScalar, 4, 8},
                        {SimdIsa::kAvx2, 4, 8},
                        {SimdIsa::kAvx512, 4, 8}};
#endif
  for (const Want& w : wants) {
    const AutotuneResult d = default_autotune(w.isa);
    EXPECT_EQ(d.isa, w.isa);
    EXPECT_EQ(d.mr, w.mr) << simd_isa_name(w.isa);
    EXPECT_EQ(d.nr, w.nr) << simd_isa_name(w.isa);
    EXPECT_EQ(d.mc, 64);
    EXPECT_EQ(d.kc, 128);
    EXPECT_EQ(d.nc, 256);
    EXPECT_EQ(d.fma_peak_gflops, 0.0);
    EXPECT_FALSE(d.from_cache);
    const MicroKernel k = select_microkernel(w.isa);
    EXPECT_EQ(k.mr, d.mr);
    EXPECT_EQ(k.nr, d.nr);
    EXPECT_NE(k.fn, nullptr);
  }
}

}  // namespace
}  // namespace xgw::la
