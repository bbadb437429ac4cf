#include <gtest/gtest.h>

#include "sim/trace.h"

namespace h2p {
namespace {

Timeline sample_timeline() {
  Timeline t;
  t.num_procs = 2;
  t.num_models = 2;
  t.tasks = {
      {0, 0, 0, 0.0, 10.0, 10.0},   // model 0 stage 0 on proc 0
      {0, 1, 1, 10.0, 25.0, 12.0},  // model 0 stage 1 on proc 1 (3ms contention)
      {1, 0, 0, 15.0, 30.0, 15.0},  // model 1 stage 0 on proc 0 (5ms gap before)
  };
  return t;
}

TEST(Timeline, Makespan) {
  EXPECT_DOUBLE_EQ(sample_timeline().makespan_ms(), 30.0);
  EXPECT_DOUBLE_EQ(Timeline{}.makespan_ms(), 0.0);
}

TEST(Timeline, Throughput) {
  const Timeline t = sample_timeline();
  EXPECT_NEAR(t.throughput_per_s(), 2.0 / 0.030, 1e-9);
  EXPECT_DOUBLE_EQ(Timeline{}.throughput_per_s(), 0.0);
}

TEST(Timeline, ModelFinish) {
  const Timeline t = sample_timeline();
  EXPECT_DOUBLE_EQ(t.model_finish_ms(0), 25.0);
  EXPECT_DOUBLE_EQ(t.model_finish_ms(1), 30.0);
}

TEST(Timeline, ModelFinishTimesMatchPerModelQueries) {
  Timeline t = sample_timeline();
  t.num_models = 4;  // model 2 has no tasks, model 3 only a later one
  t.tasks.push_back({3, 0, 1, 30.0, 41.5, 11.5});
  t.tasks.push_back({0, 2, 0, 30.0, 24.0, 0.0});  // ends before model 0's max
  const std::vector<double> finish = t.model_finish_times();
  ASSERT_EQ(finish.size(), 4u);
  for (std::size_t k = 0; k < finish.size(); ++k) {
    EXPECT_EQ(finish[k], t.model_finish_ms(k)) << "model " << k;  // bitwise
  }
  EXPECT_EQ(finish[2], 0.0);
  // A task naming a model past num_models widens the result.
  t.num_models = 1;
  EXPECT_EQ(t.model_finish_times().size(), 4u);
  EXPECT_TRUE(Timeline{}.model_finish_times().empty());
}

TEST(Timeline, ProcIdleBetweenTasks) {
  const Timeline t = sample_timeline();
  EXPECT_DOUBLE_EQ(t.proc_idle_ms(0), 5.0);  // gap 10..15
  EXPECT_DOUBLE_EQ(t.proc_idle_ms(1), 0.0);
  EXPECT_DOUBLE_EQ(t.total_bubble_ms(), 5.0);
}

TEST(Timeline, ProcIdleNoTasks) {
  Timeline t;
  t.num_procs = 3;
  EXPECT_DOUBLE_EQ(t.proc_idle_ms(2), 0.0);
}

TEST(Timeline, Utilization) {
  const Timeline t = sample_timeline();
  const auto util = t.utilization();
  ASSERT_EQ(util.size(), 2u);
  EXPECT_NEAR(util[0], 25.0 / 30.0, 1e-12);
  EXPECT_NEAR(util[1], 15.0 / 30.0, 1e-12);
}

TEST(Timeline, ContentionAccounting) {
  const Timeline t = sample_timeline();
  EXPECT_DOUBLE_EQ(t.total_contention_ms(), 3.0);
}

TEST(Timeline, TaskRecordHelpers) {
  const TaskRecord r{0, 0, 0, 5.0, 12.0, 6.0};
  EXPECT_DOUBLE_EQ(r.duration_ms(), 7.0);
  EXPECT_DOUBLE_EQ(r.contention_ms(), 1.0);
}

TEST(Timeline, GanttRenders) {
  const Timeline t = sample_timeline();
  const std::string g = t.gantt({"P0", "P1"}, 40);
  EXPECT_NE(g.find("P0"), std::string::npos);
  EXPECT_NE(g.find('0'), std::string::npos);  // model-0 glyph
  EXPECT_NE(g.find('.'), std::string::npos);  // idle glyph
}

TEST(Timeline, GanttEmptyTimeline) {
  EXPECT_EQ(Timeline{}.gantt({}), "(empty timeline)\n");
}

}  // namespace
}  // namespace h2p
