#include "noc/objectives.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"

namespace moela::noc {

std::vector<double> NocObjectiveParams::vertical_resistances(
    std::size_t layers) const {
  std::vector<double> r = r_vertical;
  r.resize(layers, default_r_vertical);
  return r;
}

moo::ObjectiveVector NocObjectives::first(std::size_t m) const {
  const double all[] = {traffic_mean, traffic_variance, cpu_latency, energy,
                        thermal};
  if (m == 0 || m > 5) {
    throw std::invalid_argument("NocObjectives::first: m must be 1..5");
  }
  return moo::ObjectiveVector(all, all + m);
}

NocObjectives evaluate_objectives(const PlatformSpec& spec,
                                  const NocDesign& design,
                                  const Workload& workload,
                                  const NocObjectiveParams& params,
                                  EvaluationDetail* detail) {
  const std::size_t num_cores = spec.num_cores();
  if (workload.traffic.num_cores() != num_cores ||
      workload.core_power.size() != num_cores) {
    throw std::invalid_argument("evaluate_objectives: workload size mismatch");
  }

  const RoutingTable routes(spec, design);
  const LinkIndex link_index(design.links);
  const auto tile_of = design.tile_of_core();
  const std::size_t num_links = design.links.size();

  // Per-link physical length d_k (units) and delay (cycles), precomputed.
  std::vector<double> link_length(num_links);
  std::vector<double> link_delay(num_links);
  for (std::size_t k = 0; k < num_links; ++k) {
    const Link& l = design.links[k];
    if (spec.z_of(l.a) == spec.z_of(l.b)) {
      const double len = spec.planar_length(l.a, l.b);
      link_length[k] = len;
      link_delay[k] = params.delay_per_unit * len;
    } else {
      link_length[k] = params.vertical_length;
      link_delay[k] = params.vertical_delay;
    }
  }

  // Router port counts P_k (degree of each router).
  const Adjacency adj(spec, design.links);

  // --- Single traffic sweep: accumulate link utilization u_k, energy,
  // and CPU-LLC latency terms.
  std::vector<double> util(num_links, 0.0);
  double energy = 0.0;
  double latency_sum = 0.0;
  double hop_weighted = 0.0;
  double traffic_total = 0.0;

  for (CoreId i = 0; i < num_cores; ++i) {
    const TileId src = tile_of[i];
    const bool src_is_cpu = spec.core_type(i) == PeType::kCpu;
    for (CoreId j = 0; j < num_cores; ++j) {
      const double f = workload.traffic(i, j);
      if (f <= 0.0 || i == j) continue;
      const TileId dst = tile_of[j];

      double path_delay = 0.0;
      double path_link_energy = 0.0;
      int hops = 0;
      routes.for_each_hop(src, dst, [&](TileId a, TileId b) {
        const std::size_t k = link_index.of(a, b);
        util[k] += f;
        path_delay += link_delay[k];
        path_link_energy += link_length[k] * params.e_link;
        ++hops;
      });

      // Router energy: every router on the path (hops + 1 of them,
      // including source and destination) spends E_r per port it has.
      double router_energy =
          params.e_router * static_cast<double>(adj.degree(dst));
      routes.for_each_hop(src, dst, [&](TileId a, TileId) {
        router_energy += params.e_router * static_cast<double>(adj.degree(a));
      });

      energy += f * (path_link_energy + router_energy);
      traffic_total += f;
      hop_weighted += f * hops;

      // Eq. (3) sums over CPU -> LLC pairs.
      if (src_is_cpu && spec.core_type(j) == PeType::kLlc) {
        latency_sum +=
            (params.router_stages * hops + path_delay) * f;
      }
    }
  }

  NocObjectives out;

  // Eq. (1): mean link utilization.
  out.traffic_mean = util::mean(util);
  // Eq. (2): population variance of link utilization.
  out.traffic_variance = util::variance(util);
  // Eq. (3): normalize by C*M (CPU count x LLC count).
  const double c = static_cast<double>(spec.count_type(PeType::kCpu));
  const double m = static_cast<double>(spec.count_type(PeType::kLlc));
  out.cpu_latency = c > 0 && m > 0 ? latency_sum / (c * m) : 0.0;
  // Eq. (4).
  out.energy = energy;

  // --- Thermal, Eqs. (5)-(7). The platform is N x N single-tile stacks of
  // Y layers; layer index 1 is nearest the heat sink (z == 0 here).
  const std::size_t layers = static_cast<std::size_t>(spec.nz());
  const auto r_vert = params.vertical_resistances(layers);
  // Prefix sums of R_j: sum_{j=1..i} R_j.
  std::vector<double> r_prefix(layers + 1, 0.0);
  for (std::size_t i = 0; i < layers; ++i) {
    r_prefix[i + 1] = r_prefix[i] + r_vert[i];
  }

  const std::size_t stacks =
      static_cast<std::size_t>(spec.nx()) * static_cast<std::size_t>(spec.ny());
  double peak_t = 0.0;
  double max_delta = 0.0;
  std::vector<double> layer_t(stacks, 0.0);
  for (std::size_t k = 1; k <= layers; ++k) {
    double layer_min = 0.0, layer_max = 0.0;
    for (std::size_t n = 0; n < stacks; ++n) {
      const int x = static_cast<int>(n) % spec.nx();
      const int y = static_cast<int>(n) / spec.nx();
      // T_n,k per Eq. (5).
      double conduction = 0.0;
      double total_power = 0.0;
      for (std::size_t i = 1; i <= k; ++i) {
        const TileId t = spec.tile_at(x, y, static_cast<int>(i) - 1);
        const double p = workload.core_power[design.placement[t]];
        conduction += p * r_prefix[i];
        total_power += p;
      }
      const double t_nk = conduction + params.r_base * total_power;
      layer_t[n] = t_nk;
      peak_t = std::max(peak_t, t_nk);
      if (n == 0) {
        layer_min = layer_max = t_nk;
      } else {
        layer_min = std::min(layer_min, t_nk);
        layer_max = std::max(layer_max, t_nk);
      }
    }
    max_delta = std::max(max_delta, layer_max - layer_min);  // Eq. (6)
  }
  out.thermal = peak_t * max_delta;  // Eq. (7)

  if (detail != nullptr) {
    detail->link_utilization = std::move(util);
    detail->max_link_utilization =
        detail->link_utilization.empty()
            ? 0.0
            : *std::max_element(detail->link_utilization.begin(),
                                detail->link_utilization.end());
    detail->mean_hops = traffic_total > 0.0 ? hop_weighted / traffic_total : 0.0;
    detail->peak_temperature = peak_t;
  }
  return out;
}

}  // namespace moela::noc
