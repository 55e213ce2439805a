#include "core/expert_pool.h"

#include <gtest/gtest.h>

#include "core/serialization.h"
#include "core/volume.h"
#include "distill/specialize.h"
#include "eval/metrics.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "util/stopwatch.h"

namespace poe {
namespace {

using testutil::FastTrainOptions;
using testutil::TinyDataConfig;
using testutil::TinyLibraryConfig;
using testutil::TinyOracleConfig;

class ExpertPoolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new SyntheticDataset(GenerateSyntheticDataset(TinyDataConfig()));
    rng_ = new Rng(777);
    oracle_ = new Wrn(TinyOracleConfig(), *rng_);
    TrainScratch(*oracle_, data_->train, FastTrainOptions(10));

    PoeBuildConfig cfg;
    cfg.library_config = TinyLibraryConfig();
    cfg.expert_ks = 0.5;
    cfg.library_options = FastTrainOptions(6);
    cfg.expert_options = FastTrainOptions(8);
    stats_ = new PoeBuildStats();
    pool_ = new ExpertPool(ExpertPool::Preprocess(
        ModelLogits(*oracle_), *data_, cfg, *rng_, stats_));
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete stats_;
    delete oracle_;
    delete rng_;
    delete data_;
    pool_ = nullptr;
    stats_ = nullptr;
    oracle_ = nullptr;
    rng_ = nullptr;
    data_ = nullptr;
  }

  static SyntheticDataset* data_;
  static Rng* rng_;
  static Wrn* oracle_;
  static ExpertPool* pool_;
  static PoeBuildStats* stats_;
};

SyntheticDataset* ExpertPoolTest::data_ = nullptr;
Rng* ExpertPoolTest::rng_ = nullptr;
Wrn* ExpertPoolTest::oracle_ = nullptr;
ExpertPool* ExpertPoolTest::pool_ = nullptr;
PoeBuildStats* ExpertPoolTest::stats_ = nullptr;

TEST_F(ExpertPoolTest, HasOneExpertPerPrimitiveTask) {
  EXPECT_EQ(pool_->num_experts(), 3);
  EXPECT_EQ(pool_->hierarchy().num_tasks(), 3);
}

TEST_F(ExpertPoolTest, BuildStatsRecorded) {
  EXPECT_GT(stats_->library_seconds, 0.0);
  EXPECT_GT(stats_->experts_seconds, 0.0);
  EXPECT_EQ(stats_->per_expert_seconds.size(), 3u);
}

// Preprocess trains its experts side by side on the worker pool (the _mt4
// variant of this suite pins four threads, so they really overlap). The
// pool must equal, bit for bit, the one-after-another schedule from the
// same seed: library KD, the shared CKD tables, then per task a head built
// from the shared rng and trained alone.
TEST_F(ExpertPoolTest, ConcurrentExpertsEqualSequentialBuild) {
  PoeBuildConfig cfg;
  cfg.library_config = TinyLibraryConfig();
  cfg.expert_ks = 0.5;
  cfg.library_options = FastTrainOptions(2);
  cfg.expert_options = FastTrainOptions(3);
  const LogitFn oracle = ModelLogits(*oracle_);

  Rng rng(21);
  PoeBuildStats stats;
  Stopwatch sw;
  ExpertPool pool = ExpertPool::Preprocess(oracle, *data_, cfg, rng, &stats);
  const double wall_seconds = sw.ElapsedSeconds();
  EXPECT_LE(stats.library_seconds + stats.experts_seconds, wall_seconds);

  Rng seq_rng(21);
  Wrn student(cfg.library_config, seq_rng);
  TrainStandardKd(oracle, student, data_->train, cfg.library_options);
  Sequential& library = *student.library_part();
  library.SetTrainable(false);
  const CkdTables tables = PrecomputeCkdTables(oracle, library, data_->train);
  EXPECT_EQ(ModuleContentCrc(*pool.library()).ValueOrDie(),
            ModuleContentCrc(library).ValueOrDie());

  ASSERT_EQ(pool.num_experts(), data_->hierarchy.num_tasks());
  for (int t = 0; t < pool.num_experts(); ++t) {
    auto head = BuildExpertPart(pool.ExpertConfig(t),
                                cfg.library_config.conv3_channels(), seq_rng);
    TrainCkdExpertWithTables(tables, *head, data_->train,
                             data_->hierarchy.task_classes(t),
                             cfg.expert_options, cfg.ckd);
    EXPECT_EQ(ModuleContentCrc(*pool.expert(t)).ValueOrDie(),
              ModuleContentCrc(*head).ValueOrDie())
        << "expert " << t;
  }
}

TEST_F(ExpertPoolTest, LibraryIsFrozen) {
  for (Parameter* p : pool_->library()->Parameters()) {
    EXPECT_FALSE(p->trainable);
  }
}

TEST_F(ExpertPoolTest, QueryBuildsWorkingTaskModel) {
  auto result = pool_->Query({0, 2});
  ASSERT_TRUE(result.ok()) << result.status();
  TaskModel model = std::move(result).ValueOrDie();
  EXPECT_EQ(model.num_branches(), 2);
  EXPECT_EQ(model.global_classes(),
            pool_->hierarchy().CompositeClasses({0, 2}));

  Dataset test = FilterClasses(
      data_->test, pool_->hierarchy().CompositeClasses({0, 2}), true);
  LogitFn fn = [&](const Tensor& x) { return model.Logits(x); };
  EXPECT_GT(EvaluateAccuracy(fn, test), 0.4f);  // chance = 0.25
}

TEST_F(ExpertPoolTest, QueryRejectsBadInput) {
  EXPECT_EQ(pool_->Query({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool_->Query({0, 0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pool_->Query({99}).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(pool_->Query({-1}).status().code(), StatusCode::kOutOfRange);
}

TEST_F(ExpertPoolTest, QueryIsTrainFree) {
  // Snapshot expert weights, query, verify nothing changed.
  Tensor before = pool_->expert(0)->Parameters()[0]->value.Clone();
  auto model = pool_->Query({0, 1}).ValueOrDie();
  Rng rng(1);
  Tensor x = Tensor::Randn({2, 3, 6, 6}, rng);
  model.Logits(x);
  EXPECT_EQ(MaxAbsDiff(before, pool_->expert(0)->Parameters()[0]->value),
            0.0f);
}

TEST_F(ExpertPoolTest, ExpertConfigReflectsTask) {
  WrnConfig cfg = pool_->ExpertConfig(1);
  EXPECT_EQ(cfg.num_classes, 2);
  EXPECT_DOUBLE_EQ(cfg.ks, 0.5);
  EXPECT_DOUBLE_EQ(cfg.kc, TinyLibraryConfig().kc);
}

TEST_F(ExpertPoolTest, ExpertsAreProperlyConfident) {
  // CKD experts should be less confident on OOD than a scratch model - the
  // Figure 5 property, asserted here as a testable invariant.
  const auto& classes = data_->hierarchy.task_classes(0);
  Dataset ood = ExcludeClasses(data_->test, classes);
  LogitFn expert_fn =
      LibraryHeadLogits(*pool_->library(), *pool_->expert(0));

  WrnConfig scfg = TinyLibraryConfig();
  scfg.ks = 0.5;
  scfg.num_classes = 2;
  Rng rng(3);
  Wrn scratch(scfg, rng);
  Dataset task_train = FilterClasses(data_->train, classes, true);
  TrainScratch(scratch, task_train, FastTrainOptions(8));

  Tensor e_probs = Softmax2d(expert_fn(ood.images));
  Tensor s_probs = Softmax2d(ModelLogits(scratch)(ood.images));
  double e_conf = 0, s_conf = 0;
  for (int64_t r = 0; r < ood.size(); ++r) {
    e_conf += e_probs.at(r * 2 + ArgmaxRow(e_probs, r));
    s_conf += s_probs.at(r * 2 + ArgmaxRow(s_probs, r));
  }
  EXPECT_LT(e_conf, s_conf);
}

TEST_F(ExpertPoolTest, VolumeReportIsConsistent) {
  VolumeReport report = ComputeVolumeReport(*oracle_, *pool_);
  EXPECT_GT(report.oracle_bytes, report.pool_total_bytes);
  EXPECT_EQ(report.pool_total_bytes,
            report.library_bytes + report.experts_total_bytes);
  EXPECT_EQ(report.num_primitive_tasks, 3);
  // 2^3 * avg expert bytes.
  EXPECT_DOUBLE_EQ(report.all_specialized_estimate_bytes,
                   8.0 * report.avg_expert_bytes);
}

TEST_F(ExpertPoolTest, AddExpertExtendsPool) {
  // Build a fresh pool over tasks {0, 1} and hot-add task 2.
  auto sub_hierarchy =
      ClassHierarchy::FromTasks(
          {data_->hierarchy.task_classes(0), data_->hierarchy.task_classes(1)})
          .ValueOrDie();
  (void)sub_hierarchy;

  PoeBuildConfig cfg;
  cfg.library_config = TinyLibraryConfig();
  cfg.expert_ks = 0.5;
  cfg.library_options = FastTrainOptions(2);
  cfg.expert_options = FastTrainOptions(2);
  Rng rng(9);
  // Preprocess over the full data (3 tasks), then drop to emulate a
  // 2-task pool via direct construction.
  ExpertPool full = ExpertPool::Preprocess(ModelLogits(*oracle_), *data_,
                                           cfg, rng);
  std::vector<std::shared_ptr<Sequential>> two_experts = {
      full.expert(0), full.expert(1)};
  ExpertPool pool(cfg.library_config, cfg.expert_ks,
                  ClassHierarchy::FromTasks(
                      {data_->hierarchy.task_classes(0),
                       data_->hierarchy.task_classes(1)})
                      .ValueOrDie(),
                  full.library(), two_experts);
  EXPECT_EQ(pool.num_experts(), 2);

  Status s = pool.AddExpert(ModelLogits(*oracle_), data_->train,
                            data_->hierarchy.task_classes(2),
                            FastTrainOptions(2), CkdOptions{}, rng);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(pool.num_experts(), 3);
  EXPECT_TRUE(pool.Query({0, 1, 2}).ok());
}

TEST_F(ExpertPoolTest, AddExpertRejectsOverlap) {
  PoeBuildConfig cfg;
  cfg.library_config = TinyLibraryConfig();
  Rng rng(10);
  // Use the existing full pool: adding task 0's classes again must fail.
  std::vector<std::shared_ptr<Sequential>> experts;
  for (int t = 0; t < 3; ++t) experts.push_back(pool_->expert(t));
  ExpertPool copy(pool_->library_config(), pool_->expert_ks(),
                  pool_->hierarchy(), pool_->library(), experts);
  Status s = copy.AddExpert(ModelLogits(*oracle_), data_->train,
                            data_->hierarchy.task_classes(0),
                            FastTrainOptions(1), CkdOptions{}, rng);
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace poe
