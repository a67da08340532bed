// Hand-computed verification of the five objective formulas (Eqs. 1-7) on a
// 2x2x2 platform where every path, degree, and temperature can be derived on
// paper.
#include "noc/objectives.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "noc/generator.hpp"
#include "noc/platform.hpp"
#include "util/rng.hpp"

namespace moela::noc {
namespace {

// 2x2x2 platform: 2 CPUs (cores 0-1), 4 GPUs (2-5), 2 LLCs (6-7); every
// tile is an edge tile. Mesh links: 4 planar per layer + 4 TSVs, L = 12.
PlatformSpec tiny_spec() {
  std::vector<PeType> cores{PeType::kCpu, PeType::kCpu, PeType::kGpu,
                            PeType::kGpu, PeType::kGpu, PeType::kGpu,
                            PeType::kLlc, PeType::kLlc};
  return PlatformSpec(2, 2, 2, std::move(cores), 8, 4);
}

NocDesign tiny_mesh(const PlatformSpec& spec) {
  NocDesign d;
  d.placement.resize(8);
  std::iota(d.placement.begin(), d.placement.end(), CoreId{0});
  for (TileId t = 0; t < 8; ++t) {
    const int x = spec.x_of(t), y = spec.y_of(t), z = spec.z_of(t);
    if (x + 1 < 2) d.links.emplace_back(t, spec.tile_at(x + 1, y, z));
    if (y + 1 < 2) d.links.emplace_back(t, spec.tile_at(x, y + 1, z));
    if (z + 1 < 2) d.links.emplace_back(t, spec.tile_at(x, y, z + 1));
  }
  d.canonicalize();
  return d;
}

NocObjectiveParams tiny_params() {
  NocObjectiveParams p;
  p.router_stages = 4.0;
  p.delay_per_unit = 1.0;
  p.vertical_delay = 1.0;
  p.vertical_length = 0.5;
  p.e_link = 1.0;
  p.e_router = 0.8;
  p.r_vertical = {0.1, 0.2};
  p.r_base = 2.0;
  return p;
}

Workload empty_workload(const PlatformSpec& spec) {
  Workload w;
  w.name = "test";
  w.traffic = TrafficMatrix(spec.num_cores());
  w.core_power.assign(spec.num_cores(), 0.0);
  return w;
}

TEST(Objectives, MeanAndVarianceSingleFlow) {
  const auto spec = tiny_spec();
  const auto design = tiny_mesh(spec);
  auto w = empty_workload(spec);
  w.traffic(0, 1) = 2.0;  // core 0 at tile 0 -> core 1 at tile 1: 1 hop

  const auto obj = evaluate_objectives(spec, design, w, tiny_params());
  // u = {2, 0 x 11}; Mean = 2/12.
  EXPECT_NEAR(obj.traffic_mean, 2.0 / 12.0, 1e-12);
  // Variance = [(2 - 1/6)^2 + 11 (1/6)^2] / 12 = 11/36.
  EXPECT_NEAR(obj.traffic_variance, 11.0 / 36.0, 1e-12);
}

TEST(Objectives, EnergySingleFlow) {
  const auto spec = tiny_spec();
  const auto design = tiny_mesh(spec);
  auto w = empty_workload(spec);
  w.traffic(0, 1) = 2.0;
  const auto obj = evaluate_objectives(spec, design, w, tiny_params());
  // Path 0->1 uses one planar link (d=1, E_link=1) and routers 0,1 with
  // degree 3 each (E_r=0.8 per port): E = 2 * (1 + 2*3*0.8) = 11.6.
  EXPECT_NEAR(obj.energy, 11.6, 1e-12);
}

TEST(Objectives, CpuLatencyOnlyCountsCpuToLlc) {
  const auto spec = tiny_spec();
  const auto design = tiny_mesh(spec);
  auto w = empty_workload(spec);
  w.traffic(0, 1) = 5.0;  // CPU->CPU: must NOT contribute to latency
  const auto obj1 = evaluate_objectives(spec, design, w, tiny_params());
  EXPECT_DOUBLE_EQ(obj1.cpu_latency, 0.0);

  auto w2 = empty_workload(spec);
  w2.traffic(0, 6) = 3.0;  // CPU core 0 (tile 0) -> LLC core 6 (tile 6)
  const auto obj2 = evaluate_objectives(spec, design, w2, tiny_params());
  // Deterministic BFS route 0 -> 2 -> 6: 2 hops, delay = 1 (planar) + 1
  // (TSV) = 2. Contribution = (4*2 + 2) * 3 = 30; / (C*M = 4) = 7.5.
  EXPECT_NEAR(obj2.cpu_latency, 7.5, 1e-12);
}

TEST(Objectives, EnergyMixedPlanarVerticalPath) {
  const auto spec = tiny_spec();
  const auto design = tiny_mesh(spec);
  auto w = empty_workload(spec);
  w.traffic(0, 6) = 3.0;  // route 0 -> 2 -> 6 (planar then TSV)
  const auto obj = evaluate_objectives(spec, design, w, tiny_params());
  // Links: planar d=1 -> 1.0; TSV length 0.5 -> 0.5. Routers 0,2,6 degree 3
  // each: 3 * 3 * 0.8 = 7.2. E = 3 * (1.5 + 7.2) = 26.1.
  EXPECT_NEAR(obj.energy, 26.1, 1e-12);
}

TEST(Objectives, ThermalHandComputed) {
  const auto spec = tiny_spec();
  const auto design = tiny_mesh(spec);
  auto w = empty_workload(spec);
  // Identity placement: stack (0,0) holds tile 0 (layer 1) and tile 4
  // (layer 2). Give them power 2 W and 1 W; everything else 0.
  w.core_power[0] = 2.0;
  w.core_power[4] = 1.0;
  const auto obj = evaluate_objectives(spec, design, w, tiny_params());
  // T_(0,0),1 = 2*0.1 + 2*2           = 4.2
  // T_(0,0),2 = 2*0.1 + 1*(0.1+0.2) + 2*(2+1) = 6.5
  // Other stacks are 0 => dT(1) = 4.2, dT(2) = 6.5.
  // Thermal = max T * max dT = 6.5 * 6.5 = 42.25.
  EXPECT_NEAR(obj.thermal, 42.25, 1e-9);

  EvaluationDetail detail;
  evaluate_objectives(spec, design, w, tiny_params(), &detail);
  EXPECT_NEAR(detail.peak_temperature, 6.5, 1e-9);
}

TEST(Objectives, ThermalIndependentOfLinks) {
  const auto spec = tiny_spec();
  auto w = empty_workload(spec);
  util::Rng rng(3);
  for (auto& p : w.core_power) p = rng.uniform(0.5, 3.0);
  DesignOps ops(spec);
  const NocDesign d1 = ops.random_design(rng);
  NocDesign d2 = d1;
  ops.move_link(d2, /*planar=*/true, rng);
  const auto o1 = evaluate_objectives(spec, d1, w, tiny_params());
  const auto o2 = evaluate_objectives(spec, d2, w, tiny_params());
  EXPECT_DOUBLE_EQ(o1.thermal, o2.thermal);
}

TEST(Objectives, ThermalDependsOnPlacement) {
  const auto spec = tiny_spec();
  const auto design = tiny_mesh(spec);
  auto w = empty_workload(spec);
  w.core_power = {3.0, 0.1, 0.1, 0.1, 3.0, 0.1, 0.1, 0.1};
  const auto hot_stacked = evaluate_objectives(spec, design, w, tiny_params());
  // Move the second hot core (core 4, tile 4) away from stack (0,0): swap
  // cores of tiles 4 and 5.
  NocDesign spread = design;
  std::swap(spread.placement[4], spread.placement[5]);
  const auto hot_spread = evaluate_objectives(spec, spread, w, tiny_params());
  EXPECT_GT(hot_stacked.thermal, hot_spread.thermal);
}

TEST(Objectives, TrafficScalesMeanLinearly) {
  const auto spec = tiny_spec();
  const auto design = tiny_mesh(spec);
  auto w = empty_workload(spec);
  util::Rng rng(5);
  for (CoreId i = 0; i < 8; ++i) {
    for (CoreId j = 0; j < 8; ++j) {
      if (i != j) w.traffic(i, j) = rng.uniform(0.0, 2.0);
    }
  }
  const auto base = evaluate_objectives(spec, design, w, tiny_params());
  auto w2 = w;
  w2.traffic.scale(3.0);
  const auto scaled = evaluate_objectives(spec, design, w2, tiny_params());
  EXPECT_NEAR(scaled.traffic_mean, 3.0 * base.traffic_mean, 1e-9);
  EXPECT_NEAR(scaled.traffic_variance, 9.0 * base.traffic_variance, 1e-6);
  EXPECT_NEAR(scaled.energy, 3.0 * base.energy, 1e-6);
  EXPECT_NEAR(scaled.cpu_latency, 3.0 * base.cpu_latency, 1e-9);
}

TEST(Objectives, FirstSelectsScenario) {
  NocObjectives o;
  o.traffic_mean = 1;
  o.traffic_variance = 2;
  o.cpu_latency = 3;
  o.energy = 4;
  o.thermal = 5;
  EXPECT_EQ(o.first(3), (moo::ObjectiveVector{1, 2, 3}));
  EXPECT_EQ(o.first(5), (moo::ObjectiveVector{1, 2, 3, 4, 5}));
  EXPECT_THROW(o.first(0), std::invalid_argument);
  EXPECT_THROW(o.first(6), std::invalid_argument);
}

TEST(Objectives, WorkloadSizeMismatchThrows) {
  const auto spec = tiny_spec();
  const auto design = tiny_mesh(spec);
  Workload w;
  w.traffic = TrafficMatrix(4);  // wrong core count
  w.core_power.assign(8, 1.0);
  EXPECT_THROW(evaluate_objectives(spec, design, w, tiny_params()),
               std::invalid_argument);
}

TEST(Objectives, DetailLinkUtilizationConsistent) {
  const auto spec = tiny_spec();
  const auto design = tiny_mesh(spec);
  auto w = empty_workload(spec);
  w.traffic(0, 1) = 2.0;
  w.traffic(2, 3) = 1.0;
  EvaluationDetail detail;
  const auto obj =
      evaluate_objectives(spec, design, w, tiny_params(), &detail);
  ASSERT_EQ(detail.link_utilization.size(), design.links.size());
  double total = 0.0;
  for (double u : detail.link_utilization) total += u;
  EXPECT_NEAR(total / 12.0, obj.traffic_mean, 1e-12);
  EXPECT_GT(detail.max_link_utilization, 0.0);
  EXPECT_GT(detail.mean_hops, 0.0);
}

TEST(Objectives, VerticalResistancePadding) {
  NocObjectiveParams p;
  p.r_vertical = {0.3};
  p.default_r_vertical = 0.11;
  const auto r = p.vertical_resistances(4);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 0.3);
  EXPECT_DOUBLE_EQ(r[1], 0.11);
  EXPECT_DOUBLE_EQ(r[3], 0.11);
}

}  // namespace
}  // namespace moela::noc
