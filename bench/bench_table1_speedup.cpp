// Reproduces TABLE I of the paper: speed-up of MOELA compared to MOEA/D and
// MOOS for the 3-, 4-, and 5-objective scenarios across the Rodinia-like
// applications.
//
// Metric (Sec. V.C): T_convergence / T_MOELA, where T_convergence is when
// the competitor reaches its converged PHV (< 0.5% improvement over 5 trace
// windows) and T_MOELA is when MOELA first reaches that same PHV. The time
// axis here is objective-evaluation count (see docs/reproduction.md, "Key
// design decisions").
//
// Environment knobs: MOELA_BENCH_EVALS, MOELA_BENCH_SMALL, MOELA_BENCH_SEED.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "moo/metrics.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace moela;

int main() {
  const auto config = exp::paper_bench_config_from_env();
  const std::vector<std::size_t> scenarios{3, 4, 5};
  const auto& apps = sim::all_rodinia_apps();

  // The whole grid as ONE Executor batch (MOELA_BENCH_JOBS workers); grid
  // index = si * apps.size() + ai.
  std::vector<exp::ScenarioCell> grid;
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
      grid.push_back({apps[ai], scenarios[si]});
    }
  }
  const auto results = exp::run_app_scenarios(grid, config);

  // rows[app][competitor(0=MOEA/D,1=MOOS)][scenario] = speedup, or empty
  // when MOELA never matched the competitor's converged PHV in the budget.
  std::vector<std::vector<std::vector<std::optional<double>>>> cells(
      apps.size(), std::vector<std::vector<std::optional<double>>>(
                       2, std::vector<std::optional<double>>(3)));

  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
      const auto& r = results[si * apps.size() + ai];
      // traces[0] = MOELA, [1] = MOEA/D, [2] = MOOS (config order).
      for (std::size_t comp = 0; comp < 2; ++comp) {
        cells[ai][comp][si] =
            moo::speedup_factor_time(r.traces[0], r.traces[comp + 1]);
      }
    }
  }

  util::Table table(
      "TABLE I: speed-up of MOELA compared to MOEA/D and MOOS");
  table.set_header({"App", "MOEA/D 3-obj", "MOEA/D 4-obj", "MOEA/D 5-obj",
                    "MOOS 3-obj", "MOOS 4-obj", "MOOS 5-obj"});
  std::vector<util::OnlineStats> column_stats(6);
  for (std::size_t ai = 0; ai < apps.size(); ++ai) {
    std::vector<std::string> row{sim::app_name(apps[ai])};
    for (std::size_t comp = 0; comp < 2; ++comp) {
      for (std::size_t si = 0; si < 3; ++si) {
        const auto& cell = cells[ai][comp][si];
        if (!cell) {
          row.push_back("not reached");
          continue;
        }
        row.push_back(util::fmt(*cell, 2));
        column_stats[comp * 3 + si].add(*cell);
      }
    }
    table.add_row(std::move(row));
  }
  // Averages over the reached cells only, with how many of them there are.
  std::vector<std::string> avg{"Average (reached)"};
  for (const auto& s : column_stats) {
    avg.push_back(s.count() == 0 ? "-"
                                 : util::fmt(s.mean(), 2) + " (" +
                                       std::to_string(s.count()) + "/" +
                                       std::to_string(apps.size()) + ")");
  }
  table.add_row(std::move(avg));
  table.print();

  std::printf("\nExpected shape (paper): speed-up > 1 throughout; paper "
              "averages 8.91x (MOEA/D) and 38.83x (MOOS) for 5-obj.\n");
  return 0;
}
