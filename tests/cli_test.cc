// Copyright (c) hyperdom authors. Licensed under the MIT license.

#include "tools/cli.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "dominance/criterion.h"
#include "index/ss_tree.h"
#include "server/client.h"
#include "server/server.h"

namespace hyperdom {
namespace cli {
namespace {

struct CliRun {
  int exit_code;
  std::string out;
  std::string err;
};

CliRun RunCli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = Run(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(ParseArgsTest, CommandAndFlags) {
  auto parsed = ParseArgs({"knn", "--k=5", "--data=file.csv"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->command, "knn");
  EXPECT_EQ(parsed->GetFlag("k"), "5");
  EXPECT_EQ(parsed->GetFlag("data"), "file.csv");
  EXPECT_EQ(parsed->GetFlag("missing", "dflt"), "dflt");
}

TEST(ParseArgsTest, Rejections) {
  EXPECT_FALSE(ParseArgs({}).ok());
  EXPECT_FALSE(ParseArgs({"cmd", "positional"}).ok());
  EXPECT_FALSE(ParseArgs({"cmd", "--noequals"}).ok());
  EXPECT_FALSE(ParseArgs({"cmd", "--=v"}).ok());
}

TEST(ParseSphereTest, Valid) {
  auto s = ParseSphere("1,2,3;0.5");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->center(), (Point{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s->radius(), 0.5);
  auto one_d = ParseSphere("-4.5;0");
  ASSERT_TRUE(one_d.ok());
  EXPECT_EQ(one_d->dim(), 1u);
}

TEST(ParseSphereTest, Rejections) {
  EXPECT_FALSE(ParseSphere("1,2,3").ok());      // no radius
  EXPECT_FALSE(ParseSphere(";1").ok());         // no coordinates
  EXPECT_FALSE(ParseSphere("1,x;1").ok());      // bad coordinate
  EXPECT_FALSE(ParseSphere("1,2;-1").ok());     // negative radius
  EXPECT_FALSE(ParseSphere("1,2;abc").ok());    // bad radius
  EXPECT_FALSE(ParseSphere("nan,0;1").ok());    // non-finite coordinate
  EXPECT_FALSE(ParseSphere("1,inf;1").ok());
  EXPECT_FALSE(ParseSphere("1,2;inf").ok());    // non-finite radius
}

TEST(ParseCriterionTest, AllNames) {
  EXPECT_TRUE(ParseCriterion("minmax").ok());
  EXPECT_TRUE(ParseCriterion("mbr").ok());
  EXPECT_TRUE(ParseCriterion("gp").ok());
  EXPECT_TRUE(ParseCriterion("trigonometric").ok());
  EXPECT_TRUE(ParseCriterion("hyperbola").ok());
  EXPECT_TRUE(ParseCriterion("oracle").ok());
  EXPECT_FALSE(ParseCriterion("voodoo").ok());
}

TEST(CliTest, HelpAndUnknownCommand) {
  EXPECT_EQ(RunCli({"help"}).exit_code, 0);
  const CliRun bad = RunCli({"frobnicate"});
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_NE(bad.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, DominateCommand) {
  const CliRun run = RunCli({"dominate", "--sa=4,0;1", "--sb=12,0;1",
                             "--sq=0,0;1.5", "--criterion=hyperbola"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("Hyperbola"), std::string::npos);
  EXPECT_NE(run.out.find("true"), std::string::npos);
}

TEST(CliTest, DominateAllCriteria) {
  const CliRun run =
      RunCli({"dominate", "--sa=4,0;1", "--sb=12,0;1", "--sq=0,0;1.5"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  for (const char* name :
       {"MinMax", "MBR", "GP", "Trigonometric", "Hyperbola"}) {
    EXPECT_NE(run.out.find(name), std::string::npos) << name;
  }
}

TEST(CliTest, DominateRejectsMixedDimensions) {
  const CliRun run =
      RunCli({"dominate", "--sa=4,0;1", "--sb=12;1", "--sq=0,0;1.5"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("dimensionality"), std::string::npos);
}

class CliPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test case: ctest -jN runs the cases as parallel processes.
    path_ = testing::TempDir() + "/hyperdom_cli_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
    const CliRun gen = RunCli({"generate", "--out=" + path_, "--n=500",
                               "--dim=3", "--mu=5", "--seed=9"});
    ASSERT_EQ(gen.exit_code, 0) << gen.err;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CliPipelineTest, GenerateIsDeterministic) {
  const std::string path2 = testing::TempDir() + "/hyperdom_cli_data2.csv";
  ASSERT_EQ(RunCli({"generate", "--out=" + path2, "--n=500", "--dim=3",
                    "--mu=5", "--seed=9"})
                .exit_code,
            0);
  std::ifstream a(path_), b(path2);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
  std::remove(path2.c_str());
}

TEST_F(CliPipelineTest, KnnCommand) {
  const CliRun run = RunCli(
      {"knn", "--data=" + path_, "--query=100,100,100;5", "--k=3"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("possible top-3"), std::string::npos);
  EXPECT_NE(run.out.find("maxdist="), std::string::npos);
}

TEST_F(CliPipelineTest, KnnRejectsBadQueryDim) {
  const CliRun run = RunCli({"knn", "--data=" + path_, "--query=1,2;5"});
  EXPECT_EQ(run.exit_code, 1);
}

TEST_F(CliPipelineTest, RankCommand) {
  const CliRun run = RunCli(
      {"rank", "--data=" + path_, "--target=7", "--query=100,100,100;5"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("can rank between"), std::string::npos);
}

TEST_F(CliPipelineTest, RankRejectsBadTarget) {
  const CliRun run = RunCli(
      {"rank", "--data=" + path_, "--target=99999", "--query=1,2,3;5"});
  EXPECT_EQ(run.exit_code, 1);
}

TEST_F(CliPipelineTest, ExperimentCommand) {
  const CliRun run = RunCli(
      {"experiment", "--data=" + path_, "--queries=300", "--repeats=1"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("Hyperbola"), std::string::npos);
  EXPECT_NE(run.out.find("precision"), std::string::npos);
}

TEST_F(CliPipelineTest, RangeCommand) {
  const CliRun run = RunCli({"range", "--data=" + path_,
                             "--query=100,100,100;5", "--range=50"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("certainly within"), std::string::npos);
  EXPECT_NE(run.out.find("possibly within"), std::string::npos);
}

TEST_F(CliPipelineTest, RangeRejectsMissingRange) {
  const CliRun run =
      RunCli({"range", "--data=" + path_, "--query=100,100,100;5"});
  EXPECT_EQ(run.exit_code, 1);
}

// The snapshot verb end to end: save, verify the envelope, load; then a
// flipped payload byte fails a plain load and rebuilds from --data.
TEST_F(CliPipelineTest, SnapshotSaveVerifyLoadAndRebuild) {
  const std::string snap = path_ + ".snap";
  const CliRun save = RunCli(
      {"snapshot", "--op=save", "--file=" + snap, "--data=" + path_});
  ASSERT_EQ(save.exit_code, 0) << save.err;
  EXPECT_NE(save.out.find("saved ss-tree snapshot of 500 spheres"),
            std::string::npos)
      << save.out;

  const CliRun verify = RunCli({"snapshot", "--op=verify", "--file=" + snap});
  EXPECT_EQ(verify.exit_code, 0) << verify.err;
  EXPECT_NE(verify.out.find("kind=ss-tree version=2"), std::string::npos)
      << verify.out;
  EXPECT_NE(verify.out.find("checksum=OK"), std::string::npos) << verify.out;

  const CliRun load = RunCli({"snapshot", "--op=load", "--file=" + snap});
  EXPECT_EQ(load.exit_code, 0) << load.err;
  EXPECT_NE(load.out.find("loaded ss-tree snapshot: 500 spheres"),
            std::string::npos)
      << load.out;

  std::string bytes;
  {
    std::ifstream in(snap, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  {
    std::ofstream out(snap, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const CliRun corrupt = RunCli({"snapshot", "--op=load", "--file=" + snap});
  EXPECT_EQ(corrupt.exit_code, 1);
  EXPECT_NE(corrupt.err.find("checksum mismatch"), std::string::npos)
      << corrupt.err;
  const CliRun rebuilt = RunCli(
      {"snapshot", "--op=load", "--file=" + snap, "--data=" + path_});
  EXPECT_EQ(rebuilt.exit_code, 0) << rebuilt.err;
  EXPECT_NE(rebuilt.out.find("rebuilt ss-tree from --data (500 spheres)"),
            std::string::npos)
      << rebuilt.out;
  std::remove(snap.c_str());
}

// A flag the verb does not read is a usage error naming the verb and the
// flag, never a silent run of the default path.
TEST_F(CliPipelineTest, UnknownFlagIsAUsageError) {
  const CliRun typo = RunCli({"knn", "--data=" + path_,
                              "--query=100,100,100;5", "--certifed=1"});
  EXPECT_EQ(typo.exit_code, 2);
  EXPECT_TRUE(typo.out.empty()) << typo.out;
  EXPECT_NE(typo.err.find("'knn'"), std::string::npos) << typo.err;
  EXPECT_NE(typo.err.find("--certifed"), std::string::npos) << typo.err;

  const std::string snap = path_ + ".snap";
  const CliRun index = RunCli({"snapshot", "--op=save", "--index=vp",
                               "--file=" + snap, "--data=" + path_});
  EXPECT_EQ(index.exit_code, 2);
  EXPECT_NE(index.err.find("'snapshot'"), std::string::npos) << index.err;
  EXPECT_NE(index.err.find("--index"), std::string::npos) << index.err;
  std::ifstream written(snap, std::ios::binary);
  EXPECT_FALSE(written.good()) << "a refused command must not run";

  // Global flags are taken by every verb.
  const CliRun global = RunCli(
      {"knn", "--data=" + path_, "--query=100,100,100;5", "--seed=3"});
  EXPECT_EQ(global.exit_code, 0) << global.err;
}

TEST(CliTest, ExpiryCommand) {
  const CliRun holds = RunCli({"expiry", "--sa=2,0;0.5", "--sb=20,0;0.5",
                               "--sq=0,0;0", "--va=1", "--vb=1",
                               "--horizon=100"});
  EXPECT_EQ(holds.exit_code, 0) << holds.err;
  // Closed form (growing_test.cc): expiry at t = 8.5.
  EXPECT_NE(holds.out.find("expires at t = 8.5"), std::string::npos)
      << holds.out;

  const CliRun never = RunCli({"expiry", "--sa=20,0;0.5", "--sb=2,0;0.5",
                               "--sq=0,0;0"});
  EXPECT_EQ(never.exit_code, 0);
  EXPECT_NE(never.out.find("does not dominate"), std::string::npos);

  const CliRun forever = RunCli({"expiry", "--sa=2,0;0.1", "--sb=500,0;0.1",
                                 "--sq=0,0;0.1", "--horizon=10"});
  EXPECT_EQ(forever.exit_code, 0);
  EXPECT_NE(forever.out.find("whole horizon"), std::string::npos);
}

TEST(CliTest, ExpiryRejectsNegativeRates) {
  const CliRun run = RunCli({"expiry", "--sa=2,0;0.5", "--sb=20,0;0.5",
                             "--sq=0,0;0", "--va=-1"});
  EXPECT_EQ(run.exit_code, 1);
}

TEST(CliTest, SelfCheckCommand) {
  const CliRun run = RunCli({"selfcheck", "--scenes=1500", "--dim=3"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("all criterion contracts hold"), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("Hyperbola"), std::string::npos);
}

TEST(CliTest, SelfCheckRejectsBadArgs) {
  EXPECT_EQ(RunCli({"selfcheck", "--scenes=0"}).exit_code, 1);
  EXPECT_EQ(RunCli({"selfcheck", "--mu=-3"}).exit_code, 1);
}

// An integer flag whose value does not fit its destination is refused
// with an error naming the flag, never narrowed (--k=2^32 once went out as
// k = 0, --timeout-ms=2^32 as a 0 ms timeout). Each case is the first value
// past the flag's range. The remote verbs aim at a port nothing listens
// on, and the local ones at a missing file, so only the flag check can
// name the flag: knn, serve and experiment check their flags before they
// load the data. --threads and --shards stop at 1,024, so no case here
// starts a thread.
TEST(CliTest, IntegerFlagsOutsideTheirRangeAreRefused) {
  const std::string server = "--server=127.0.0.1:1";
  const std::string query = "--query=1,2,3;1";
  const std::string data = "--data=/no/such/file.csv";
  const std::string past_ms = "18446744073709552";  // 2^64 / 1000, rounded up
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"query", server, query, "--k=4294967296"}, "--k"},
       {{"query", server, query, "--timeout-ms=2147483648"}, "--timeout-ms"},
       {{"query", server, query, "--timeout-ms=0"}, "--timeout-ms"},
       {{"query", server, query, "--attempts=2147483648"}, "--attempts"},
       {{"query", server, query, "--budget-ms=" + past_ms}, "--budget-ms"},
       {{"remove", server, "--id=1", "--budget-ms=" + past_ms}, "--budget-ms"},
       {{"serve", data, "--io-timeout-ms=2147483648"}, "--io-timeout-ms"},
       {{"serve", data, "--io-timeout-ms=0"}, "--io-timeout-ms"},
       {{"serve", data, "--slow-query-ms=" + past_ms}, "--slow-query-ms"},
       {{"serve", data, "--port=65536"}, "--port"},
       {{"experiment", data, "--repeats=2147483648"}, "--repeats"},
       {{"knn", data, query, "--queries=2", "--threads=1025"}, "--threads"},
       {{"serve", data, "--threads=1025"}, "--threads"},
       {{"serve", data, "--shards=1025"}, "--shards"}};
  for (const auto& [args, flag] : cases) {
    const CliRun run = RunCli(args);
    EXPECT_EQ(run.exit_code, 1) << args.back() << ": " << run.err;
    EXPECT_NE(run.err.find("bad " + flag + ": '"), std::string::npos)
        << args.back() << ": " << run.err;
  }
}

// A double flag takes only a finite value in its range: NaN and the
// infinities are refused with an error naming the flag, as is a value
// past the range. Every case but the last runs to completion when the
// flag is not checked. --fault-rate is a global flag, so a bad value is a
// usage error (exit 2).
TEST(CliTest, NumberFlagsMustBeFiniteAndInRange) {
  const std::string csv = testing::TempDir() + "/hyperdom_cli_numbers.csv";
  const std::string out = testing::TempDir() + "/hyperdom_cli_numbers_out.csv";
  ASSERT_EQ(RunCli({"generate", "--out=" + csv, "--n=200", "--dim=2",
                    "--seed=4"})
                .exit_code,
            0);
  const std::string data = "--data=" + csv;
  const std::string query = "--query=100,100;5";
  const std::string sa = "--sa=2,0;0.5", sb = "--sb=20,0;0.5",
                    sq = "--sq=0,0;0";
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"knn", data, query, "--deadline-ms=nan"}, "--deadline-ms"},
       {{"knn", data, query, "--deadline-ms=1e300"}, "--deadline-ms"},
       {{"knn", data, query, "--deadline-ms=0.0001"}, "--deadline-ms"},
       {{"range", data, query, "--range=nan"}, "--range"},
       {{"range", data, query, "--range=inf"}, "--range"},
       {{"generate", "--out=" + out, "--n=5", "--dim=2", "--mu=nan"}, "--mu"},
       {{"selfcheck", "--scenes=10", "--mu=nan"}, "--mu"},
       {{"expiry", sa, sb, sq, "--va=nan"}, "--va"},
       {{"expiry", sa, sb, sq, "--vb=inf"}, "--vb"},
       {{"expiry", sa, sb, sq, "--vq=nan"}, "--vq"},
       {{"expiry", sa, sb, sq, "--horizon=nan"}, "--horizon"},
       {{"dominate", "--sa=nan,0;1", "--sb=10,0;1", "--sq=-5,0;1"}, "--sa"},
       {{"knn", data, "--query=100,100;inf"}, "--query"},
       {{"knn", data, query, "--fault-rate=nan"}, "--fault-rate"},
       {{"knn", data, query, "--fault-rate=2"}, "--fault-rate"}};
  for (const auto& [args, flag] : cases) {
    const CliRun run = RunCli(args);
    const bool global = flag == "--fault-rate";
    EXPECT_EQ(run.exit_code, global ? 2 : 1) << args.back() << ": " << run.err;
    const std::string named =
        flag == "--sa" || flag == "--query" ? flag + ": " : "bad " + flag;
    EXPECT_NE(run.err.find(named), std::string::npos)
        << args.back() << ": " << run.err;
  }
  // The largest deadline in range sets none the clock can hold: the
  // answer is the exact one.
  const CliRun exact = RunCli({"knn", data, query, "--k=5"});
  ASSERT_EQ(exact.exit_code, 0) << exact.err;
  const CliRun far = RunCli(
      {"knn", data, query, "--k=5", "--deadline-ms=18446744073709551"});
  EXPECT_EQ(far.exit_code, 0) << far.err;
  EXPECT_EQ(far.out, exact.out);
  std::remove(csv.c_str());
  std::remove(out.c_str());
}

TEST_F(CliPipelineTest, MissingFileErrors) {
  const CliRun run =
      RunCli({"knn", "--data=/no/such/file.csv", "--query=1,2,3;1"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("error"), std::string::npos);
}

// `query` against a server whose only connection slot is held: every
// attempt is shed at accept and the command exits 3 (overloaded), as
// docs/robustness.md §9 promises. Once the slot is free, the same command
// succeeds.
TEST(CliServerTest, QueryExitsThreeWhileTheOnlySlotIsHeld) {
  SyntheticSpec spec;
  spec.n = 500;
  spec.dim = 3;
  spec.seed = 9;
  SsTree tree(spec.dim);
  ASSERT_TRUE(tree.BulkLoadStr(GenerateSynthetic(spec)).ok());
  const auto criterion = MakeCriterion(CriterionKind::kHyperbola);
  server::ServerOptions options;
  options.max_connections = 1;
  server::Server server(&tree, criterion.get(), options);
  ASSERT_TRUE(server.Start().ok());
  server::ClientOptions holder_options;
  holder_options.port = server.port();
  server::Client holder(holder_options);
  ASSERT_TRUE(holder.Ping().ok());  // occupies the one connection slot

  const std::vector<std::string> query = {
      "query", "--server=127.0.0.1:" + std::to_string(server.port()),
      "--query=100,100,100;5", "--k=3"};
  const CliRun shed = RunCli(query);
  EXPECT_EQ(shed.exit_code, 3) << shed.err;
  EXPECT_NE(shed.err.find("connection limit"), std::string::npos)
      << shed.err;

  holder.Close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.counters().active_connections.load() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const CliRun served = RunCli(query);
  EXPECT_EQ(served.exit_code, 0) << served.err;
  EXPECT_NE(served.out.find("possible top-3"), std::string::npos)
      << served.out;
}

}  // namespace
}  // namespace cli
}  // namespace hyperdom
