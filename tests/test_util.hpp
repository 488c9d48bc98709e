#pragma once

// Shared hand-built fixtures for the unit tests. The delay numbers below
// are worked out from the default ECL library:
//   BUF1: T0 70, Tf 120, Td 260, Fin 0.025
//   NOR2: T0 95, Tf 150, Td 300, Fin 0.030
//   DFF:  CK→Q T0 180, Q Tf 140 / Td 300, Fin(D) 0.035, Fin(CK) 0.030
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bgr/common/rng.hpp"
#include "bgr/gen/generator.hpp"
#include "bgr/layout/placement.hpp"
#include "bgr/netlist/netlist.hpp"
#include "bgr/route/path_search.hpp"
#include "bgr/timing/analyzer.hpp"

namespace bgr::testutil {

/// One registered path-search engine, for test sweeps. Listing an engine
/// here is what gets it picked up by the differential batteries — add new
/// backends to all_path_search_engines() instead of hardcoding backend
/// lists in individual tests.
struct EngineInfo {
  PathSearchBackend backend;
  const char* name;
  /// Engines in the bit-identical family must reproduce the reference
  /// Dijkstra trees and RouteOutcome exactly (DESIGN.md §11); engines
  /// outside it (steiner) are only swept for thread-count identity here —
  /// the rest of their contract lives in their own oracle battery
  /// (test_steiner, DESIGN.md §16).
  bool bit_identical_to_reference;
};

inline std::vector<EngineInfo> all_path_search_engines() {
  return {
      {PathSearchBackend::kDijkstra, "dijkstra", true},
      {PathSearchBackend::kCached, "cached", true},
      {PathSearchBackend::kSteiner, "steiner", false},
  };
}

/// PI A → g0(BUF1) → g1(NOR2, second input PI B) → ff(DFF).D;
/// pad CK → ff.CK; ff.Q → pad PO.
/// Zero-wire path delays: A→D = 176.35 ps, CK→PO = 187 ps.
struct ChainCircuit {
  Netlist nl{Library::make_ecl_default()};
  CellId g0, g1, ff;
  NetId a, b, ck, n0, n1, q;
  TerminalId pad_a, pad_b, pad_ck, pad_po;
  TerminalId d_term;  // ff.D sink terminal

  ChainCircuit() {
    const Library& lib = nl.library();
    g0 = nl.add_cell("g0", lib.find("BUF1"));
    g1 = nl.add_cell("g1", lib.find("NOR2"));
    ff = nl.add_cell("ff", lib.find("DFF"));
    a = nl.add_net("a");
    b = nl.add_net("b");
    ck = nl.add_net("ck");
    n0 = nl.add_net("n0");
    n1 = nl.add_net("n1");
    q = nl.add_net("q");
    pad_a = nl.add_pad_input("A", a, 100.0, 220.0);
    pad_b = nl.add_pad_input("B", b, 100.0, 220.0);
    pad_ck = nl.add_pad_input("CK", ck, 60.0, 140.0);
    auto pin = [&](CellId c, const char* name) {
      return nl.cell_type(c).find_pin(name);
    };
    (void)nl.connect(a, g0, pin(g0, "I0"));
    (void)nl.connect(n0, g0, pin(g0, "O"));
    (void)nl.connect(n0, g1, pin(g1, "I0"));
    (void)nl.connect(b, g1, pin(g1, "I1"));
    (void)nl.connect(n1, g1, pin(g1, "O"));
    d_term = nl.connect(n1, ff, pin(ff, "D"));
    (void)nl.connect(ck, ff, pin(ff, "CK"));
    (void)nl.connect(q, ff, pin(ff, "Q"));
    pad_po = nl.add_pad_output("PO", q, 0.05);
    nl.validate();
  }

  /// Placement on 2 rows used by the layout-dependent tests.
  Placement make_placement() {
    Placement pl(2, 30);
    pl.place(nl, g0, RowId{0}, 2);
    pl.place(nl, g1, RowId{0}, 14);
    pl.place(nl, ff, RowId{1}, 8);
    const CellId fd0 = nl.add_cell("fd0", nl.library().find("FEED"));
    const CellId fd1 = nl.add_cell("fd1", nl.library().find("FEED"));
    const CellId fd2 = nl.add_cell("fd2", nl.library().find("FEED"));
    pl.place(nl, fd0, RowId{0}, 8);
    pl.place(nl, fd1, RowId{0}, 20);
    pl.place(nl, fd2, RowId{1}, 20);
    for (const TerminalId t : nl.terminals()) {
      const Terminal& term = nl.terminal(t);
      if (term.kind == TerminalKind::kCellPin) continue;
      pl.place_pad(t, term.kind == TerminalKind::kPadIn, IntInterval{0, 29});
    }
    return pl;
  }

  /// Zero-wire delays of the two end-to-end paths.
  static constexpr double kPathADelayPs = 176.35;  // A → ff.D
  static constexpr double kPathCkDelayPs = 187.0;  // CK → PO
};

/// Rebuilds the dataset with cells and nets renumbered by the given
/// permutations (new id i holds what old id perm[i] held). Terminals are
/// renumbered implicitly by the rebuild order; constraints and pad sites
/// are remapped. The result describes the *same* physical design — the
/// shared harness of the metamorphic relabeling batteries
/// (test_metamorphic, test_steiner).
inline Dataset relabel(const Dataset& d,
                       const std::vector<std::int32_t>& cell_perm,
                       const std::vector<std::int32_t>& net_perm) {
  const Netlist& old = d.netlist;
  Netlist netlist(old.library());
  std::vector<CellId> cell_map(static_cast<std::size_t>(old.cell_count()));
  for (const std::int32_t o : cell_perm) {
    const CellId old_id{o};
    cell_map[static_cast<std::size_t>(o)] =
        netlist.add_cell(old.cell(old_id).name, old.cell(old_id).type);
  }
  std::vector<NetId> net_map(static_cast<std::size_t>(old.net_count()));
  for (const std::int32_t o : net_perm) {
    const NetId old_id{o};
    net_map[static_cast<std::size_t>(o)] =
        netlist.add_net(old.net(old_id).name, old.net(old_id).pitch_width);
  }

  // Terminals in their *original global creation order* so each keeps its
  // TerminalId (the pad-assignment pass processes pads in TerminalId order,
  // a documented processing order, not an identity the relabeling is meant
  // to scramble). Only the nets and cells they attach to are renumbered.
  std::vector<TerminalId> term_map(
      static_cast<std::size_t>(old.terminal_count()), TerminalId::invalid());
  for (std::int32_t ti = 0; ti < old.terminal_count(); ++ti) {
    const TerminalId t{ti};
    const Terminal& term = old.terminal(t);
    const NetId new_net = net_map[static_cast<std::size_t>(term.net.value())];
    TerminalId mapped = TerminalId::invalid();
    switch (term.kind) {
      case TerminalKind::kCellPin:
        mapped = netlist.connect(new_net,
                                 cell_map[static_cast<std::size_t>(
                                     term.cell.value())],
                                 term.pin);
        break;
      case TerminalKind::kPadIn:
        mapped = netlist.add_pad_input(term.pad_name, new_net,
                                       term.pad_tf_ps_per_pf,
                                       term.pad_td_ps_per_pf);
        break;
      case TerminalKind::kPadOut:
        mapped = netlist.add_pad_output(term.pad_name, new_net,
                                        term.pad_cap_pf);
        break;
    }
    term_map[static_cast<std::size_t>(t.value())] = mapped;
  }
  for (const NetId n : old.nets()) {
    const Net& net = old.net(n);
    if (net.is_differential() && net.diff_primary) {
      netlist.make_differential(net_map[static_cast<std::size_t>(n.value())],
                                net_map[static_cast<std::size_t>(
                                    net.diff_partner.value())]);
    }
  }

  Placement placement(d.placement.row_count(), d.placement.width());
  for (const CellId c : old.cells()) {
    const PlacedCell& pc = d.placement.placed(c);
    placement.place(netlist, cell_map[static_cast<std::size_t>(c.value())],
                    pc.row, pc.x);
  }
  for (const auto& [pad, site] : d.placement.pad_sites()) {
    placement.place_pad(term_map[static_cast<std::size_t>(pad.value())],
                        site.top, site.window);
  }

  std::vector<PathConstraint> constraints;
  for (const PathConstraint& pc : d.constraints) {
    PathConstraint mapped;
    mapped.name = pc.name;
    mapped.limit_ps = pc.limit_ps;
    for (const TerminalId t : pc.sources) {
      mapped.sources.push_back(term_map[static_cast<std::size_t>(t.value())]);
    }
    for (const TerminalId t : pc.sinks) {
      mapped.sinks.push_back(term_map[static_cast<std::size_t>(t.value())]);
    }
    constraints.push_back(std::move(mapped));
  }

  return Dataset{d.name + "_relabel", d.spec,
                 std::move(netlist), std::move(placement),
                 std::move(constraints), d.tech};
}

inline std::vector<std::int32_t> random_permutation(std::int32_t n, Rng& rng) {
  std::vector<std::int32_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (std::int32_t i = n - 1; i > 0; --i) {
    const std::int32_t j = rng.uniform_i32(0, i);
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

/// Small generator spec for fast end-to-end property tests.
inline CircuitSpec small_spec(std::uint64_t seed) {
  CircuitSpec spec;
  spec.name = "S" + std::to_string(seed);
  spec.seed = seed;
  spec.rows = 5;
  spec.target_cells = 120;
  spec.levels = 6;
  spec.primary_inputs = 6;
  spec.primary_outputs = 6;
  spec.diff_pairs = 2;
  spec.clock_buffers = 1;
  spec.path_constraints = 8;
  return spec;
}

/// Small block-structured spec: a handful of closed cones so the deletion
/// loop decomposes into several shards while each route stays fast.
inline CircuitSpec shard_spec(std::uint64_t seed, std::int32_t blocks) {
  CircuitSpec spec;
  spec.name = "SH" + std::to_string(seed);
  spec.seed = seed;
  spec.blocks = blocks;
  spec.rows = 3;
  spec.target_cells = 100 * blocks;
  spec.levels = 5;
  spec.primary_inputs = 6;
  spec.primary_outputs = 6;
  spec.diff_pairs = blocks;
  spec.clock_buffers = 1;
  spec.path_constraints = 10;
  return spec;
}

}  // namespace bgr::testutil
