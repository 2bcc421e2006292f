// Tests: the xgw-serve batch layer — spec canonicalization / cache keys
// (with a golden pin: key drift silently invalidates every store, so it
// must show up here as a diff), the content-addressed store, and the
// union-DAG batch driver's determinism contract.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "cli/driver.h"
#include "common/error.h"
#include "mf/epm.h"
#include "serve/batch.h"
#include "serve/cas.h"
#include "serve/spec.h"

namespace xgw {
namespace {

namespace fs = std::filesystem;
using namespace serve;

std::string temp_dir(const char* name) {
  const std::string d =
      (fs::temp_directory_path() / (std::string("xgw_serve_") + name))
          .string();
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

/// The small-silicon spec most tests key against (59 PW basis).
InputFile si_sigma_input() {
  return InputFile::parse(
      "job sigma\nmaterial silicon\nsupercell 1\nsigma_bands 2 3\n"
      "n_e_points 3\ne_step 0.02\n",
      known_input_keys());
}

SpecDims si_dims() { return SpecDims{4, 23, 27}; }

ZMatrix test_matrix(idx n, double seed) {
  ZMatrix m(n, n);
  for (idx i = 0; i < n; ++i)
    for (idx j = 0; j < n; ++j)
      m(i, j) = cplx(seed + double(i) * 0.25, double(j) - seed);
  return m;
}

bool bitwise_equal(const ZMatrix& a, const ZMatrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

JobSpec make_job(const std::string& name, const std::string& text) {
  JobSpec j;
  j.name = name;
  j.path = name + ".inp";
  j.input = InputFile::parse(text, known_input_keys());
  return j;
}

// --- cache keys -----------------------------------------------------------

TEST(ServeSpec, CacheKeyGolden) {
  // Pinned canonical texts + FNV-1a keys. A diff here means every existing
  // store on disk is silently invalidated: bump the schema header
  // (xgw-cas-key-vN) instead of editing the canonical form in place.
  const ResolvedSpec s = resolve_spec(si_sigma_input(), si_dims());

  EXPECT_EQ(canonical_stage_spec(s, Stage::kMf),
            "schema xgw-cas-key-v1\n"
            "stage mf\n"
            "material silicon\n"
            "n_bands -1\n"
            "pseudobands 0\n"
            "pseudobands_nxi 3\n"
            "psi_cutoff -1\n"
            "supercell 1\n"
            "vacancy none\n"
            "vacuum 16\n");
  EXPECT_EQ(cache_key(s, Stage::kMf), "mf-5b251a4ee0d0d570");

  EXPECT_EQ(canonical_stage_spec(s, Stage::kChi),
            "schema xgw-cas-key-v1\n"
            "stage chi\n"
            "eps_cutoff -1\n"
            "eta 0.001\n"
            "freq static\n"
            "material silicon\n"
            "n_bands -1\n"
            "nv_block 8\n"
            "pseudobands 0\n"
            "pseudobands_nxi 3\n"
            "psi_cutoff -1\n"
            "q 0\n"
            "supercell 1\n"
            "vacancy none\n"
            "vacuum 16\n");
  EXPECT_EQ(cache_key(s, Stage::kChi), "chi-83d95a9dd4dcfd13");
  EXPECT_EQ(cache_key(s, Stage::kEps), "eps-a5e1955656e51205");
  EXPECT_EQ(cache_key(s, Stage::kMtxel, 3), "mtx-2923007b99138c98");
  EXPECT_EQ(cache_key(s, Stage::kSigmaBand, 3), "sig-88b2d83d399c1c05");

  const InputFile ein = InputFile::parse(
      "job epsilon\nmaterial silicon\nsupercell 1\nn_freq 2\n",
      known_input_keys());
  const ResolvedSpec es = resolve_spec(ein, si_dims());
  EXPECT_EQ(cache_key(es, Stage::kEpsFreq, -1, 1), "epsf-696194fa4049b0e6");
  // The frequency node itself is canonicalized shortest-round-trip.
  EXPECT_NE(canonical_stage_spec(es, Stage::kEpsFreq, -1, 1)
                .find("freq 3.7320508075688767\n"),
            std::string::npos);
}

TEST(ServeSpec, SpaceTimeStageKeysGolden) {
  // The space-time stages are key-able before they are servable, so their
  // canonical form is frozen HERE, before any executor writes entries
  // under them. Built by hand: resolve_spec refuses space_time specs
  // until the batch executor runs that route.
  ResolvedSpec s = resolve_spec(si_sigma_input(), si_dims());
  s.sigma_method = "space_time";
  s.n_tau = 14;

  EXPECT_EQ(canonical_stage_spec(s, Stage::kChiTau, -1, 2),
            "schema xgw-cas-key-v1\n"
            "stage chit\n"
            "axis imaginary_time\n"
            "eps_cutoff -1\n"
            "eta 0.001\n"
            "material silicon\n"
            "n_bands -1\n"
            "n_tau 14\n"
            "nv_block 8\n"
            "pseudobands 0\n"
            "pseudobands_nxi 3\n"
            "psi_cutoff -1\n"
            "q 0\n"
            "sigma_method space_time\n"
            "supercell 1\n"
            "tau_index 2\n"
            "vacancy none\n"
            "vacuum 16\n");
  EXPECT_EQ(cache_key(s, Stage::kChiTau, -1, 2), "chit-68c8288a6084cdf3");
  EXPECT_EQ(cache_key(s, Stage::kWTau), "wtau-0830c9ec46ae1abf");
  EXPECT_EQ(cache_key(s, Stage::kSigmaStBand, 3), "sigst-83e452e0d2aa907a");

  // Method tag + grid order are key material: a space-time entry can
  // never collide with a GPP one, and n_tau changes invalidate.
  ResolvedSpec finer = s;
  finer.n_tau = 16;
  EXPECT_NE(cache_key(s, Stage::kWTau), cache_key(finer, Stage::kWTau));
  EXPECT_NE(cache_key(s, Stage::kSigmaStBand, 3),
            cache_key(s, Stage::kSigmaBand, 3));
}

TEST(ServeSpec, RejectsSpaceTimeSpecAsUnservable) {
  // Cache-poisoning protection: the batch executor runs the GPP route, so
  // a space_time spec must be refused outright, not silently keyed.
  const InputFile st = InputFile::parse(
      "job sigma\nmaterial silicon\nsigma_method space_time\nn_tau 12\n",
      known_input_keys());
  try {
    resolve_spec(st, si_dims());
    FAIL() << "space_time spec must be unservable";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kValidation);
    EXPECT_NE(std::string(e.what()).find("space_time"), std::string::npos);
  }
  // Typos are a validation error too (not a silent fall-through to gpp).
  const InputFile typo = InputFile::parse(
      "job sigma\nmaterial silicon\nsigma_method spacetime\n",
      known_input_keys());
  EXPECT_THROW(resolve_spec(typo, si_dims()), Error);
}

TEST(ServeSpec, CanonDoubleShortestRoundTrip) {
  EXPECT_EQ(canon_double(0.02), "0.02");
  EXPECT_EQ(canon_double(0.001), "0.001");
  EXPECT_EQ(canon_double(16.0), "16");
  EXPECT_EQ(canon_double(-1.0), "-1");
  // A value needing all 17 digits survives the round trip.
  const double v = 3.7320508075688767;
  EXPECT_EQ(std::strtod(canon_double(v).c_str(), nullptr), v);
  EXPECT_EQ(std::strtod(canon_double(0.1).c_str(), nullptr), 0.1);
  EXPECT_EQ(canon_double(0.1), "0.1");
}

TEST(ServeSpec, KeyIgnoresOrderAndMaterializedDefaults) {
  // Same physics, different text: key order shuffled, defaults explicit.
  const InputFile a = si_sigma_input();
  const InputFile b = InputFile::parse(
      "e_step 0.02\nsigma_bands 2 3\nsupercell 1\nmaterial silicon\n"
      "n_e_points 3\njob sigma\neta 1e-3\nnv_block 8\nvacuum 16\n",
      known_input_keys());
  const ResolvedSpec ra = resolve_spec(a, si_dims());
  const ResolvedSpec rb = resolve_spec(b, si_dims());
  for (Stage st : {Stage::kMf, Stage::kChi, Stage::kEps})
    EXPECT_EQ(cache_key(ra, st), cache_key(rb, st));
  EXPECT_EQ(cache_key(ra, Stage::kSigmaBand, 2),
            cache_key(rb, Stage::kSigmaBand, 2));
}

TEST(ServeSpec, KeyIgnoresRuntimeKnobs) {
  const InputFile a = si_sigma_input();
  const InputFile b = InputFile::parse(
      "job sigma\nmaterial silicon\nsupercell 1\nsigma_bands 2 3\n"
      "n_e_points 3\ne_step 0.02\n"
      "checkpoint /tmp/ck.bin\ntrace trace.json\n"
      "sched_workers 4\nio_retry_attempts 3\nspill_verify checksum\n",
      known_input_keys());
  const ResolvedSpec ra = resolve_spec(a, si_dims());
  const ResolvedSpec rb = resolve_spec(b, si_dims());
  EXPECT_EQ(cache_key(ra, Stage::kSigmaBand, 3),
            cache_key(rb, Stage::kSigmaBand, 3));
  EXPECT_EQ(cache_key(ra, Stage::kChi), cache_key(rb, Stage::kChi));
}

TEST(ServeSpec, KeySensitivity) {
  const ResolvedSpec base = resolve_spec(si_sigma_input(), si_dims());
  ResolvedSpec mod = base;
  mod.eta = 2e-3;
  EXPECT_EQ(cache_key(base, Stage::kMf), cache_key(mod, Stage::kMf));
  EXPECT_NE(cache_key(base, Stage::kChi), cache_key(mod, Stage::kChi));
  mod = base;
  mod.nv_block = 4;  // changes CHI_SUM summation order => bits
  EXPECT_NE(cache_key(base, Stage::kChi), cache_key(mod, Stage::kChi));
  EXPECT_NE(cache_key(base, Stage::kSigmaBand, 3),
            cache_key(mod, Stage::kSigmaBand, 3));
  EXPECT_NE(cache_key(base, Stage::kSigmaBand, 2),
            cache_key(base, Stage::kSigmaBand, 3));
  EXPECT_NE(cache_key(base, Stage::kChi), cache_key(base, Stage::kEps));
}

TEST(ServeSpec, BudgetResolvesNvBlockPurely) {
  const InputFile tight = InputFile::parse(
      "job sigma\nmaterial silicon\nsupercell 1\nmemory_budget_mb 1\n",
      known_input_keys());
  const ResolvedSpec rt = resolve_spec(tight, si_dims());
  const ResolvedSpec rt2 = resolve_spec(tight, si_dims());
  EXPECT_EQ(rt.nv_block, rt2.nv_block);  // pure: same spec, same block
  const ResolvedSpec loose = resolve_spec(si_sigma_input(), si_dims());
  if (rt.nv_block != loose.nv_block) {
    EXPECT_NE(cache_key(rt, Stage::kChi), cache_key(loose, Stage::kChi));
  }
}

TEST(ServeSpec, RejectsUnservableSpecs) {
  const SpecDims d = si_dims();
  auto reject = [&](const std::string& text) {
    const InputFile in = InputFile::parse(text, known_input_keys());
    EXPECT_THROW(resolve_spec(in, d), Error) << text;
  };
  reject("job bse\nmaterial silicon\n");
  reject("job sigma\nmaterial silicon\ninput_wfn wfn.bin\n");
  reject("job epsilon\nmaterial silicon\noutput_epsmat eps.bin\n");
}

TEST(ServeSpec, BandsDefaultToGapPair) {
  const InputFile in = InputFile::parse("job sigma\nmaterial silicon\n",
                                        known_input_keys());
  const ResolvedSpec s = resolve_spec(in, si_dims());
  EXPECT_EQ(s.bands, (std::vector<idx>{3, 4}));  // nv-1, nv with nv=4
}

TEST(ServeSpec, ManifestParsing) {
  const std::string dir = temp_dir("manifest");
  {
    std::ofstream(dir + "/a.inp") << "job sigma\nmaterial silicon\n";
    std::ofstream(dir + "/b.inp") << "job epsilon\nmaterial silicon\n";
    std::ofstream(dir + "/jobs.txt")
        << "# comment\n  a.inp  \n\nb.inp # trailing\n";
  }
  const std::vector<JobSpec> jobs = load_manifest(dir + "/jobs.txt");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].name, "a");
  EXPECT_EQ(jobs[1].name, "b");
  EXPECT_EQ(jobs[0].input.require_string("job"), "sigma");
  std::ofstream(dir + "/empty.txt") << "# nothing\n";
  EXPECT_THROW(load_manifest(dir + "/empty.txt"), Error);
}

// --- content-addressed store ---------------------------------------------

TEST(ServeCas, MatrixRoundTripAndCounters) {
  const std::string dir = temp_dir("cas_rt");
  CasStore cas(dir);
  const ZMatrix m = test_matrix(6, 1.5);
  EXPECT_FALSE(cas.probe("chi-abc"));
  cas.put_matrix("chi-abc", m);
  EXPECT_TRUE(cas.contains("chi-abc"));
  EXPECT_TRUE(cas.probe("chi-abc"));
  const auto got = cas.get_matrix("chi-abc");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(bitwise_equal(m, *got));
  const CasStats st = cas.stats();
  EXPECT_EQ(st.puts, 1u);
  EXPECT_EQ(st.hits, 2u);    // probe hit + read hit
  EXPECT_EQ(st.misses, 1u);  // first probe
  EXPECT_GT(cas.disk_bytes(), 0u);
}

TEST(ServeCas, PersistsAcrossReopen) {
  const std::string dir = temp_dir("cas_reopen");
  const ZMatrix m = test_matrix(5, -2.0);
  {
    CasStore cas(dir);
    cas.put_matrix("eps-feed", m);
  }
  CasStore cas(dir);
  EXPECT_TRUE(cas.contains("eps-feed"));
  const auto got = cas.get_matrix("eps-feed");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(bitwise_equal(m, *got));
}

TEST(ServeCas, QpRowCodecRoundTrip) {
  QpResult r;
  r.band = 7;
  r.e_mf = 0.3854213698471126;
  r.sigma.sx = cplx(-0.034, 1e-17);
  r.sigma.ch = cplx(-0.2658441172956, -3e-9);
  r.dsigma_de = -0.350694;
  r.z = 0.740348538175915;
  r.e_qp = 0.16321117264590416;
  const QpResult back = decode_qp(encode_qp(r));
  EXPECT_EQ(back.band, r.band);
  EXPECT_EQ(back.e_mf, r.e_mf);
  EXPECT_EQ(back.sigma.sx, r.sigma.sx);
  EXPECT_EQ(back.sigma.ch, r.sigma.ch);
  EXPECT_EQ(back.dsigma_de, r.dsigma_de);
  EXPECT_EQ(back.z, r.z);
  EXPECT_EQ(back.e_qp, r.e_qp);

  const std::string dir = temp_dir("cas_qp");
  CasStore cas(dir);
  cas.put_qp("sig-row", r);
  const auto got = cas.get_qp("sig-row");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->e_qp, r.e_qp);
  EXPECT_EQ(got->z, r.z);
}

TEST(ServeCas, CorruptEntryReadsAsMissAndRecovers) {
  const std::string dir = temp_dir("cas_corrupt");
  CasStore cas(dir);
  const ZMatrix m = test_matrix(8, 3.25);
  cas.put_matrix("chi-bad", m);

  // At-rest bit flip in the payload: binio's trailing checksum catches it.
  const std::string file = dir + "/cas_chi-bad.mat.xgw";
  ASSERT_TRUE(fs::exists(file));
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char c;
    f.seekg(64);
    f.get(c);
    f.seekp(64);
    f.put(static_cast<char>(c ^ 0x40));
  }
  EXPECT_FALSE(cas.get_matrix("chi-bad").has_value());
  EXPECT_EQ(cas.stats().corrupt, 1u);
  EXPECT_FALSE(cas.contains("chi-bad"));  // entry dropped
  // Recompute + re-put restores service.
  cas.put_matrix("chi-bad", m);
  const auto got = cas.get_matrix("chi-bad");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(bitwise_equal(m, *got));
}

TEST(ServeCas, LruEvictionUnderDiskBudget) {
  const std::string dir = temp_dir("cas_lru");
  const ZMatrix m = test_matrix(8, 0.5);
  CasStore probe_size(dir + "/probe");
  probe_size.put_matrix("k", m);
  const std::size_t one = probe_size.disk_bytes();

  CasStore cas(dir, 3 * one);  // room for three entries
  cas.put_matrix("chi-a", m);
  cas.put_matrix("chi-b", m);
  cas.put_matrix("chi-c", m);
  EXPECT_EQ(cas.size(), 3u);
  (void)cas.get_matrix("chi-a");  // refresh a's recency
  cas.put_matrix("chi-d", m);     // evicts b (stalest)
  EXPECT_EQ(cas.stats().evictions, 1u);
  EXPECT_TRUE(cas.contains("chi-a"));
  EXPECT_FALSE(cas.contains("chi-b"));
  EXPECT_TRUE(cas.contains("chi-c"));
  EXPECT_TRUE(cas.contains("chi-d"));
  EXPECT_LE(cas.disk_bytes(), 3 * one);
}

TEST(ServeCas, IndexRebuildFromDirectoryScan) {
  const std::string dir = temp_dir("cas_index");
  const ZMatrix m = test_matrix(4, 9.0);
  QpResult r;
  r.band = 3;
  r.e_qp = 0.25;
  {
    CasStore cas(dir);
    cas.put_matrix("chi-x", m);
    cas.put_qp("sig-y", r);
  }
  fs::remove(dir + "/cas-index.txt");  // lose the recency index
  CasStore cas(dir);
  EXPECT_EQ(cas.size(), 2u);  // entries rediscovered by scan
  EXPECT_TRUE(cas.contains("chi-x"));
  EXPECT_TRUE(cas.contains("sig-y"));
  const auto got = cas.get_matrix("chi-x");
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(bitwise_equal(m, *got));
  EXPECT_EQ(cas.get_qp("sig-y")->band, 3);
}

TEST(ServeCas, StaleTmpFilesCleanedOnOpen) {
  const std::string dir = temp_dir("cas_tmp");
  {
    CasStore cas(dir);
    cas.put_matrix("chi-live", test_matrix(3, 1.0));
  }
  std::ofstream(dir + "/cas_chi-dead.mat.xgw.tmp") << "torn";
  CasStore cas(dir);
  EXPECT_FALSE(fs::exists(dir + "/cas_chi-dead.mat.xgw.tmp"));
  EXPECT_EQ(cas.size(), 1u);
}

// --- batch driver ---------------------------------------------------------

const char* kSigmaGap =
    "job sigma\nmaterial silicon\nsupercell 1\nsigma_bands 2 3\n";
const char* kSigmaCond =
    "job sigma\nmaterial silicon\nsupercell 1\nsigma_bands 3 4\n";
const char* kEpsFreq =
    "job epsilon\nmaterial silicon\nsupercell 1\nn_freq 2\n";

TEST(ServeBatch, ColdThenWarmIsBitwiseWithZeroRecompute) {
  const std::string dir = temp_dir("batch_warm");
  ServeOptions opt;
  opt.store_dir = dir;
  const std::vector<JobSpec> jobs = {make_job("gap", kSigmaGap),
                                     make_job("eps", kEpsFreq)};
  std::ostringstream os1, os2;
  const BatchReport cold = run_batch(jobs, opt, os1);
  ASSERT_TRUE(cold.all_ok());
  EXPECT_GT(cold.total_builds(), 0u);
  EXPECT_EQ(cold.cas.hits, 0u);

  const BatchReport warm = run_batch(jobs, opt, os2);
  ASSERT_TRUE(warm.all_ok());
  EXPECT_EQ(warm.total_builds(), 0u);  // zero chi/eps/sigma recomputation
  EXPECT_EQ(warm.cas.misses, 0u);

  ASSERT_EQ(cold.jobs[0].qp.size(), warm.jobs[0].qp.size());
  for (std::size_t i = 0; i < cold.jobs[0].qp.size(); ++i) {
    EXPECT_EQ(cold.jobs[0].qp[i].e_qp, warm.jobs[0].qp[i].e_qp);
    EXPECT_EQ(cold.jobs[0].qp[i].z, warm.jobs[0].qp[i].z);
    EXPECT_EQ(cold.jobs[0].qp[i].e_mf, warm.jobs[0].qp[i].e_mf);
  }
  ASSERT_EQ(cold.jobs[1].eps_heads.size(), warm.jobs[1].eps_heads.size());
  for (std::size_t k = 0; k < cold.jobs[1].eps_heads.size(); ++k)
    EXPECT_EQ(cold.jobs[1].eps_heads[k], warm.jobs[1].eps_heads[k]);
}

TEST(ServeBatch, OverlappingJobsShareEachChiExactlyOnce) {
  const std::string dir = temp_dir("batch_share");
  ServeOptions opt;
  opt.store_dir = dir;
  const std::vector<JobSpec> jobs = {make_job("gap", kSigmaGap),
                                     make_job("cond", kSigmaCond),
                                     make_job("eps", kEpsFreq)};
  std::ostringstream os;
  const BatchReport rep = run_batch(jobs, opt, os);
  ASSERT_TRUE(rep.all_ok());
  // One mean field, one chi, one eps^{-1}(0) across all three jobs.
  EXPECT_EQ(rep.mf_builds, 1u);
  EXPECT_EQ(rep.chi_builds, 1u);
  EXPECT_EQ(rep.eps_builds, 1u);
  // Band 3 overlaps the two sigma jobs: 3 unique bands, not 4.
  EXPECT_EQ(rep.sigma_band_builds, 3u);
  EXPECT_EQ(rep.epsfreq_builds, 2u);
  EXPECT_GE(rep.shared_nodes, 4);  // mf, chi, eps, sig(band 3)
  // The shared band is byte-identical in both jobs' outputs.
  EXPECT_EQ(rep.jobs[0].qp[1].e_qp, rep.jobs[1].qp[0].e_qp);
  EXPECT_EQ(rep.jobs[0].qp[1].z, rep.jobs[1].qp[0].z);
}

TEST(ServeBatch, MatchesDirectSigmaDiagBitwise) {
  const std::string dir = temp_dir("batch_direct");
  ServeOptions opt;
  opt.store_dir = dir;
  std::ostringstream os;
  const BatchReport rep =
      run_batch({make_job("gap", kSigmaGap)}, opt, os);
  ASSERT_TRUE(rep.all_ok());

  GwCalculation gw(EpmModel::silicon(1), GwParameters{});
  const std::vector<QpResult> direct = gw.sigma_diag({2, 3}, 3, 0.02);
  ASSERT_EQ(rep.jobs[0].qp.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(rep.jobs[0].qp[i].e_mf, direct[i].e_mf);
    EXPECT_EQ(rep.jobs[0].qp[i].sigma.sx, direct[i].sigma.sx);
    EXPECT_EQ(rep.jobs[0].qp[i].sigma.ch, direct[i].sigma.ch);
    EXPECT_EQ(rep.jobs[0].qp[i].z, direct[i].z);
    EXPECT_EQ(rep.jobs[0].qp[i].e_qp, direct[i].e_qp);
  }
}

TEST(ServeBatch, WarmHitSurvivesRuntimeKnobChanges) {
  // checkpoint/trace/scheduler knobs are not part of the key: a respec
  // with different runtime settings still replays from the store.
  const std::string dir = temp_dir("batch_knobs");
  ServeOptions opt;
  opt.store_dir = dir;
  std::ostringstream os1, os2;
  ASSERT_TRUE(run_batch({make_job("a", kSigmaGap)}, opt, os1).all_ok());
  const BatchReport warm = run_batch(
      {make_job("b", "job sigma\nmaterial silicon\nsupercell 1\n"
                     "sigma_bands 2 3\ncheckpoint /tmp/serve_ck.bin\n"
                     "sched_workers 2\ntrace /tmp/serve_tr.json\n")},
      opt, os2);
  ASSERT_TRUE(warm.all_ok());
  EXPECT_EQ(warm.total_builds(), 0u);
  EXPECT_EQ(warm.cas.misses, 0u);
}

TEST(ServeBatch, PartialStoreComputesOnlyTheDelta) {
  const std::string dir = temp_dir("batch_delta");
  ServeOptions opt;
  opt.store_dir = dir;
  std::ostringstream os1, os2;
  ASSERT_TRUE(run_batch({make_job("gap", kSigmaGap)}, opt, os1).all_ok());
  // New job overlaps on band 3: only band 4's Sigma (and its MTXEL block)
  // is computed; mean field, chi, eps all replay.
  const BatchReport delta =
      run_batch({make_job("cond", kSigmaCond)}, opt, os2);
  ASSERT_TRUE(delta.all_ok());
  EXPECT_EQ(delta.mf_builds, 0u);  // wavefunctions replay from the store
  EXPECT_EQ(delta.chi_builds, 0u);
  EXPECT_EQ(delta.eps_builds, 0u);
  EXPECT_EQ(delta.sigma_band_builds, 1u);
  EXPECT_EQ(delta.mtxel_builds, 1u);
}

TEST(ServeBatch, NoCacheModeTouchesNoStore) {
  const std::string dir = temp_dir("batch_nocache");
  ServeOptions opt;
  opt.store_dir = dir;
  opt.use_cache = false;
  std::ostringstream os;
  const BatchReport rep =
      run_batch({make_job("gap", kSigmaGap)}, opt, os);
  ASSERT_TRUE(rep.all_ok());
  EXPECT_GT(rep.total_builds(), 0u);
  EXPECT_EQ(rep.cas.puts, 0u);
  EXPECT_EQ(rep.cas.hits, 0u);
  EXPECT_EQ(rep.cas.misses, 0u);
}

TEST(ServeBatch, BadJobFailsAloneBatchContinues) {
  const std::string dir = temp_dir("batch_badjob");
  ServeOptions opt;
  opt.store_dir = dir;
  std::ostringstream os;
  const BatchReport rep = run_batch(
      {make_job("bad", "job bse\nmaterial silicon\n"),
       make_job("good", kSigmaGap)},
      opt, os);
  EXPECT_FALSE(rep.all_ok());
  ASSERT_EQ(rep.jobs.size(), 2u);
  EXPECT_EQ(rep.jobs[0].rc, 1);
  EXPECT_FALSE(rep.jobs[0].error.empty());
  EXPECT_EQ(rep.jobs[1].rc, 0);
  EXPECT_EQ(rep.jobs[1].qp.size(), 2u);
}

TEST(ServeBatch, EvictionMidStreamDegradesToRecompute) {
  // A store too small for everything: later puts evict earlier entries,
  // and a resubmit recomputes what was lost — still bitwise identical.
  const std::string dir = temp_dir("batch_evict");
  ServeOptions opt;
  opt.store_dir = dir;
  opt.store_budget_mb = 0.02;  // ~20 KB: holds a couple of entries only
  const std::vector<JobSpec> jobs = {make_job("gap", kSigmaGap)};
  std::ostringstream os1, os2;
  const BatchReport cold = run_batch(jobs, opt, os1);
  ASSERT_TRUE(cold.all_ok());
  EXPECT_GT(cold.cas.evictions, 0u);
  const BatchReport again = run_batch(jobs, opt, os2);
  ASSERT_TRUE(again.all_ok());
  for (std::size_t i = 0; i < cold.jobs[0].qp.size(); ++i)
    EXPECT_EQ(cold.jobs[0].qp[i].e_qp, again.jobs[0].qp[i].e_qp);
}

TEST(ServeBatch, WorkerCountInvariance) {
  const std::string d1 = temp_dir("batch_w1");
  const std::string d4 = temp_dir("batch_w4");
  const std::vector<JobSpec> jobs = {make_job("gap", kSigmaGap),
                                     make_job("cond", kSigmaCond),
                                     make_job("eps", kEpsFreq)};
  ServeOptions o1, o4;
  o1.store_dir = d1;
  o1.workers = 1;
  o4.store_dir = d4;
  o4.workers = 4;
  std::ostringstream s1, s4;
  const BatchReport r1 = run_batch(jobs, o1, s1);
  const BatchReport r4 = run_batch(jobs, o4, s4);
  ASSERT_TRUE(r1.all_ok());
  ASSERT_TRUE(r4.all_ok());
  for (std::size_t j = 0; j < 2; ++j)
    for (std::size_t i = 0; i < r1.jobs[j].qp.size(); ++i) {
      EXPECT_EQ(r1.jobs[j].qp[i].e_qp, r4.jobs[j].qp[i].e_qp);
      EXPECT_EQ(r1.jobs[j].qp[i].z, r4.jobs[j].qp[i].z);
    }
  for (std::size_t k = 0; k < r1.jobs[2].eps_heads.size(); ++k)
    EXPECT_EQ(r1.jobs[2].eps_heads[k], r4.jobs[2].eps_heads[k]);
  EXPECT_EQ(r1.sigma_band_builds, r4.sigma_band_builds);
}

}  // namespace
}  // namespace xgw
