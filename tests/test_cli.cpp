// Tests: input-file parser and the xgw_run job driver.

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "cli/driver.h"
#include "common/error.h"
#include "common/validate.h"

namespace xgw {
namespace {

TEST(InputParser, BasicKeysAndComments) {
  const InputFile in = InputFile::parse(
      "# a comment line\n"
      "job sigma   # trailing comment\n"
      "eps_cutoff 1.25\n"
      "supercell 2\n"
      "pseudobands true\n"
      "sigma_bands 3 4 5\n");
  EXPECT_EQ(in.require_string("job"), "sigma");
  EXPECT_DOUBLE_EQ(in.get_double("eps_cutoff", 0.0), 1.25);
  EXPECT_EQ(in.get_int("supercell", 1), 2);
  EXPECT_TRUE(in.get_bool("pseudobands", false));
  EXPECT_EQ(in.get_int_list("sigma_bands"),
            (std::vector<idx>{3, 4, 5}));
  EXPECT_FALSE(in.has("vacancy"));
  EXPECT_EQ(in.get_string("material", "silicon"), "silicon");
}

TEST(InputParser, LaterKeysOverride) {
  const InputFile in = InputFile::parse("job sigma\njob epsilon\n");
  EXPECT_EQ(in.require_string("job"), "epsilon");
}

TEST(InputParser, RejectsUnknownKeys) {
  EXPECT_THROW(InputFile::parse("jobb sigma\n", known_input_keys()), Error);
  EXPECT_NO_THROW(InputFile::parse("job sigma\n", known_input_keys()));
}

TEST(InputParser, RejectsMalformed) {
  EXPECT_THROW(InputFile::parse("job\n"), Error);           // no value
  const InputFile in = InputFile::parse("eps_cutoff abc\n");
  EXPECT_THROW(in.get_double("eps_cutoff", 0.0), Error);
  EXPECT_THROW(in.get_int("eps_cutoff", 0), Error);
  EXPECT_THROW(in.get_bool("eps_cutoff", false), Error);
  EXPECT_THROW(in.require_string("absent"), Error);
}

TEST(Driver, SigmaJobProducesQpTable) {
  const InputFile in = InputFile::parse(
      "job sigma\nmaterial silicon\neps_cutoff 0.9\n");
  std::ostringstream os;
  EXPECT_EQ(run_job(in, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("E_QP(eV)"), std::string::npos);
  EXPECT_NE(out.find("gpp_diag_kernel"), std::string::npos);  // timer report
}

TEST(Driver, SigmaJobWithCheckpointMatchesPlainRun) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "xgw_cli_sigma_restart")
          .string();
  std::filesystem::remove_all(path);
  const std::string base =
      "job sigma\nmaterial silicon\neps_cutoff 0.9\nsigma_bands 2 3\n";
  std::ostringstream plain, ckpt;
  EXPECT_EQ(run_job(InputFile::parse(base, known_input_keys()), plain), 0);
  EXPECT_EQ(run_job(InputFile::parse(base + "checkpoint " + path + "\n",
                                     known_input_keys()),
                    ckpt),
            0);
  // Identical QP rows (the timer report below the table may differ).
  const auto qp_rows = [](const std::string& s) {
    std::istringstream is(s);
    std::vector<std::string> rows;
    for (std::string line; std::getline(is, line);)
      if (!line.empty() && std::isdigit(static_cast<unsigned char>(line[0])))
        rows.push_back(line);
    return rows;
  };
  EXPECT_EQ(qp_rows(plain.str()), qp_rows(ckpt.str()));
  // Completed run cleans up its restart files (the directory stays).
  EXPECT_TRUE(std::filesystem::is_empty(path));
  std::filesystem::remove_all(path);
}

TEST(Driver, SigmaJobWithSchedWorkersMatchesSerial) {
  const std::string base =
      "job sigma\nmaterial silicon\neps_cutoff 0.9\nsigma_bands 2 3\n";
  std::ostringstream serial, pooled;
  EXPECT_EQ(run_job(InputFile::parse(base, known_input_keys()), serial), 0);
  EXPECT_EQ(run_job(InputFile::parse(base + "sched_workers 4\n",
                                     known_input_keys()),
                    pooled),
            0);
  EXPECT_NE(pooled.str().find("sched_workers 4"), std::string::npos);
  const auto qp_rows = [](const std::string& s) {
    std::istringstream is(s);
    std::vector<std::string> rows;
    for (std::string line; std::getline(is, line);)
      if (!line.empty() && std::isdigit(static_cast<unsigned char>(line[0])))
        rows.push_back(line);
    return rows;
  };
  EXPECT_EQ(qp_rows(serial.str()), qp_rows(pooled.str()));
}

TEST(Driver, EpsilonFrequencySweepWithCheckpoint) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "xgw_cli_eps_restart")
          .string();
  std::filesystem::remove_all(path);
  const InputFile in = InputFile::parse(
      "job epsilon\nmaterial silicon\neps_cutoff 0.9\nn_freq 3\n"
      "checkpoint " + path + "\n",
      known_input_keys());
  std::ostringstream os;
  EXPECT_EQ(run_job(in, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("epsinv_head(i*"), std::string::npos);
  EXPECT_TRUE(std::filesystem::is_empty(path));
  std::filesystem::remove_all(path);
}

// `checkpoint` only means something where a loop writes restart files; a
// job that would silently ignore it is rejected before any compute.
TEST(Driver, CheckpointRejectedWhereNothingRestarts) {
  const std::string base =
      "material silicon\neps_cutoff 0.9\ncheckpoint restart_dir\n";
  for (const char* job :
       {"job ff\n", "job sigma\nsigma_method space_time\n",
        "job epsilon\n", "job bands\n", "job cohsex\n"}) {
    std::ostringstream os;
    try {
      run_job(InputFile::parse(base + job, known_input_keys()), os);
      ADD_FAILURE() << "accepted checkpoint for: " << job;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kValidation) << job;
      EXPECT_NE(std::string(e.what()).find("checkpoint"), std::string::npos);
    }
    EXPECT_TRUE(os.str().empty()) << "computed before rejecting: " << job;
    EXPECT_FALSE(std::filesystem::exists("restart_dir")) << job;
  }
}

TEST(Driver, BandsJobReportsGaps) {
  const InputFile in = InputFile::parse(
      "job bands\nmaterial silicon\nband_segments 4\n");
  std::ostringstream os;
  EXPECT_EQ(run_job(in, os), 0);
  EXPECT_NE(os.str().find("indirect_gap_eV"), std::string::npos);
}

TEST(Driver, EpsilonJobReportsHead) {
  const InputFile in = InputFile::parse(
      "job epsilon\nmaterial silicon\neps_cutoff 0.9\n");
  std::ostringstream os;
  EXPECT_EQ(run_job(in, os), 0);
  EXPECT_NE(os.str().find("epsinv_head"), std::string::npos);
}

TEST(Driver, RpaJobReportsEnergy) {
  const InputFile in = InputFile::parse(
      "job rpa\nmaterial silicon\neps_cutoff 0.9\nrpa_n_freq 8\n");
  std::ostringstream os;
  EXPECT_EQ(run_job(in, os), 0);
  EXPECT_NE(os.str().find("E_c_RPA_Ha -"), std::string::npos);  // negative
}

TEST(Driver, BseJobReportsExcitons) {
  const InputFile in = InputFile::parse(
      "job bse\nmaterial silicon\neps_cutoff 0.9\nbse_nval 2\nbse_ncond 2\n");
  std::ostringstream os;
  EXPECT_EQ(run_job(in, os), 0);
  EXPECT_NE(os.str().find("exciton 0"), std::string::npos);
}

TEST(Driver, PseudobandsFlagCompresses) {
  const InputFile in = InputFile::parse(
      "job epsilon\nmaterial silicon\neps_cutoff 0.9\n"
      "pseudobands true\npseudobands_nxi 2\n");
  std::ostringstream os;
  EXPECT_EQ(run_job(in, os), 0);
  // Compressed band count is well below the 59-PW dense set.
  const std::string out = os.str();
  const auto pos = out.find("N_b = ");
  ASSERT_NE(pos, std::string::npos);
  const long nb = std::stol(out.substr(pos + 6));
  EXPECT_LT(nb, 40);
}

TEST(Driver, RobustnessKeysAcceptedAndEchoed) {
  const InputFile in = InputFile::parse(
      "job bands\nmaterial silicon\n"
      "validate warn\nio_retry_attempts 4\nio_retry_backoff_ms 0.5\n"
      "spill_verify checksum\n",
      known_input_keys());
  std::ostringstream os;
  EXPECT_EQ(run_job(in, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("validate_mode warn"), std::string::npos);
  EXPECT_NE(out.find("io_retry attempts 4"), std::string::npos);
  EXPECT_NE(out.find("spill_verify checksum"), std::string::npos);

  // A later run WITHOUT the keys resets every mode to its default — modes
  // must never leak between in-process runs.
  const InputFile plain =
      InputFile::parse("job bands\nmaterial silicon\n", known_input_keys());
  std::ostringstream os2;
  EXPECT_EQ(run_job(plain, os2), 0);
  EXPECT_EQ(os2.str().find("validate_mode"), std::string::npos);
  EXPECT_EQ(validate_mode(), ValidateMode::kError);
}

TEST(Driver, SigmaMethodSpaceTimeProducesQpTable) {
  const InputFile in = InputFile::parse(
      "job sigma\nmaterial silicon\neps_cutoff 0.9\n"
      "sigma_method space_time\nn_tau 12\n",
      known_input_keys());
  std::ostringstream os;
  EXPECT_EQ(run_job(in, os), 0);
  const std::string out = os.str();
  // Keys present in the input are echoed back; absent keys are not.
  EXPECT_NE(out.find("sigma_method space_time"), std::string::npos);
  EXPECT_NE(out.find("n_tau 12"), std::string::npos);
  EXPECT_NE(out.find("E_QP(eV)"), std::string::npos);
  // Deterministic counters the CI smoke + bench exact-gate on.
  EXPECT_NE(out.find("st_grid_n_tau 12"), std::string::npos);
  EXPECT_NE(out.find("st_tau_batches 1"), std::string::npos);
  EXPECT_NE(out.find("st_sigma_kernel"), std::string::npos);  // timer report

  // A later run WITHOUT sigma_method takes the GPP route (unconditional
  // assignment from input-or-default: the method never leaks between
  // in-process runs, and the echo line only appears when the key does).
  const InputFile plain = InputFile::parse(
      "job sigma\nmaterial silicon\neps_cutoff 0.9\n", known_input_keys());
  std::ostringstream os2;
  EXPECT_EQ(run_job(plain, os2), 0);
  EXPECT_EQ(os2.str().find("sigma_method"), std::string::npos);
  EXPECT_NE(os2.str().find("gpp_diag_kernel"), std::string::npos);
}

TEST(Driver, SigmaMethodRejectsTypos) {
  std::ostringstream os;
  // Bad value: fails fast, not a silent fall-through to the default route.
  const InputFile bad_value = InputFile::parse(
      "job sigma\nmaterial silicon\nsigma_method spacetime\n",
      known_input_keys());
  EXPECT_THROW(run_job(bad_value, os), Error);
  // Misspelled key: caught by the known-key check at parse time.
  EXPECT_THROW(
      InputFile::parse("job sigma\nsigma_methd space_time\n",
                       known_input_keys()),
      Error);
  EXPECT_THROW(
      InputFile::parse("job sigma\nntau 12\n", known_input_keys()), Error);
}

TEST(Driver, RobustnessKeysRejectTypos) {
  std::ostringstream os;
  const InputFile bad_mode = InputFile::parse(
      "job bands\nmaterial silicon\nvalidate of\n", known_input_keys());
  EXPECT_THROW(run_job(bad_mode, os), Error);
  const InputFile bad_verify = InputFile::parse(
      "job bands\nmaterial silicon\nspill_verify crc\n", known_input_keys());
  EXPECT_THROW(run_job(bad_verify, os), Error);
  const InputFile bad_attempts = InputFile::parse(
      "job bands\nmaterial silicon\nio_retry_attempts 0\n",
      known_input_keys());
  EXPECT_THROW(run_job(bad_attempts, os), Error);
}

namespace fs = std::filesystem;

/// Fresh scratch directory for manifest/batch tests.
std::string cli_scratch(const char* tag) {
  const fs::path d =
      fs::temp_directory_path() / (std::string("xgw_test_cli_") + tag);
  fs::remove_all(d);
  fs::create_directories(d);
  return d.string();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
}

TEST(Batch, ManifestResolvesRelativePathsAndSkipsComments) {
  const std::string dir = cli_scratch("manifest");
  write_text(dir + "/jobs.manifest",
             "# fleet of two\n"
             "a.inp   # trailing comment\n"
             "\n"
             "   sub/b.inp\n");
  const std::vector<std::string> paths =
      read_job_manifest(dir + "/jobs.manifest");
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], (fs::path(dir) / "a.inp").string());
  EXPECT_EQ(paths[1], (fs::path(dir) / "sub/b.inp").string());
}

TEST(Batch, ManifestRejectsMissingOrEmpty) {
  const std::string dir = cli_scratch("manifest_bad");
  EXPECT_THROW(read_job_manifest(dir + "/absent.manifest"), Error);
  write_text(dir + "/empty.manifest", "# only comments\n\n");
  EXPECT_THROW(read_job_manifest(dir + "/empty.manifest"), Error);
}

TEST(Batch, RunsEveryJobAndReturnsWorstRc) {
  const std::string dir = cli_scratch("batch");
  write_text(dir + "/good1.inp", "job bands\nmaterial silicon\n");
  write_text(dir + "/bad.inp", "job frobnicate\nmaterial silicon\n");
  write_text(dir + "/good2.inp", "job bands\nmaterial silicon\n");
  std::ostringstream os;
  const int rc = run_job_files(
      {dir + "/good1.inp", dir + "/bad.inp", dir + "/good2.inp"}, os);
  EXPECT_EQ(rc, 1);  // worst of {0, 1, 0}
  const std::string out = os.str();
  // A failing job reports its error and does not stop the batch.
  EXPECT_NE(out.find("=== job 1/3 "), std::string::npos);
  EXPECT_NE(out.find("=== job 3/3 "), std::string::npos);
  EXPECT_NE(out.find("good1.inp rc 0"), std::string::npos);
  EXPECT_NE(out.find("bad.inp rc 1 error"), std::string::npos);
  EXPECT_NE(out.find("good2.inp rc 0"), std::string::npos);
}

TEST(Batch, AllGoodReturnsZero) {
  const std::string dir = cli_scratch("batch_ok");
  write_text(dir + "/a.inp", "job bands\nmaterial silicon\n");
  write_text(dir + "/m.manifest", "a.inp\n");
  std::ostringstream os;
  EXPECT_EQ(run_job_files(read_job_manifest(dir + "/m.manifest"), os), 0);
  EXPECT_NE(os.str().find("a.inp rc 0"), std::string::npos);
}

TEST(Driver, UnknownJobFails) {
  const InputFile in = InputFile::parse("job frobnicate\nmaterial silicon\n");
  std::ostringstream os;
  EXPECT_THROW(run_job(in, os), Error);
}

TEST(Driver, UnknownMaterialFails) {
  const InputFile in = InputFile::parse("job sigma\nmaterial unobtanium\n");
  std::ostringstream os;
  EXPECT_THROW(run_job(in, os), Error);
}

}  // namespace
}  // namespace xgw
