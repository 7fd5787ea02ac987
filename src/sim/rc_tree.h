// Lumped RC(L)-tree netlists built from routing trees.
//
// The driver is modelled as an ideal step source behind Rd; each wire edge
// becomes a chain of L-sections (series resistance, then capacitance to
// ground), with enough sections that the discretization error of the
// distributed line is negligible; sink loads are added at sink nodes.
// Wire widths scale resistance by 1/w and capacitance by w.
//
// This is the substrate for the moment engine (sim/moments.h), the two-pole
// simulator (sim/two_pole.h, our reimplementation of Zhou et al. [18]) and
// the backward-Euler transient simulator (sim/transient.h, the SPICE
// substitute used for cross-validation).
#ifndef CONG93_SIM_RC_TREE_H
#define CONG93_SIM_RC_TREE_H

#include <vector>

#include "rtree/flat_tree.h"
#include "tech/technology.h"
#include "wiresize/delay_eval.h"

namespace cong93 {

class RcTree {
public:
    struct RcNode {
        int parent = -1;        ///< -1 for the root (driver output node)
        double r_ohm = 0.0;     ///< resistance to the parent (Rd for the root)
        double c_f = 0.0;       ///< capacitance to ground at this node
        double l_h = 0.0;       ///< inductance in series with r_ohm (RLC mode)
    };

    /// Raw construction (tests / hand-built ladders, and the builders
    /// below).  Node 0 must be the root with r_ohm = driver resistance;
    /// children must follow parents.  `sink_nodes` becomes sink_nodes().
    explicit RcTree(std::vector<RcNode> nodes, std::vector<int> sink_nodes = {});

    /// Builds the RC tree of a uniform-width compiled tree (the analysis
    /// IR).  `sections_per_edge` bounds the number of L-sections per wire
    /// edge (each edge gets min(length, sections_per_edge) sections).
    /// `with_inductance` adds the technology's per-unit wire inductance in
    /// series with each section (the paper's Table 4 MCM value is 380
    /// fH/um); the default pure-RC mode matches the paper's delay model.
    static RcTree from_flat_tree(const FlatTree& ft, const Technology& tech,
                                 int sections_per_edge = 16,
                                 bool with_inductance = false);

    /// Builds the RC tree of a wiresized net from its WiresizeContext (the
    /// segment arrays, technology and widths, plus the originating FlatTree
    /// for the sink order).  Each segment is one wire of width
    /// ctx.widths()[assignment[i]].
    static RcTree from_wiresized_flat(const WiresizeContext& ctx,
                                      const Assignment& assignment,
                                      int sections_per_edge = 16,
                                      bool with_inductance = false);

    std::size_t size() const { return parent_.size(); }
    /// Node i, assembled from the field arrays.
    RcNode node(std::size_t i) const
    {
        return RcNode{parent_[i], r_[i], c_[i], l_[i]};
    }
    /// Every node, assembled (a copy; the kernels read the arrays below).
    std::vector<RcNode> nodes() const;

    /// The node fields, stored once as structure-of-arrays: the moment
    /// kernels (sim/moments.h) read these directly, and the builders write
    /// them directly, sized up front.
    const std::int32_t* parent_data() const { return parent_.data(); }
    const double* r_data() const { return r_.data(); }
    const double* c_data() const { return c_.data(); }
    const double* l_data() const { return l_.data(); }

    /// RC-tree node index of each sink of the originating tree, in
    /// FlatTree::sinks() order (empty for raw construction).
    const std::vector<int>& sink_nodes() const { return sink_nodes_; }

    double total_capacitance() const;

    /// True when any branch carries inductance (cached at construction).
    bool has_inductance() const { return has_inductance_; }

private:
    /// Builder form: `n` zeroed nodes (node 0 the root behind
    /// `driver_ohm`), filled by append_sections and then check()ed.
    RcTree(std::size_t n, double driver_ohm);
    /// Appends a chain of `sections` (>= 1) pi-sections modelling a wire of
    /// total resistance r, capacitance c and inductance l from node `from`,
    /// writing nodes [next, next + sections); returns the far node index.
    int append_sections(std::size_t& next, int from, double r, double c,
                        double l, int sections);
    /// The raw constructor's checks (every construction path runs them);
    /// also caches has_inductance().
    void check();

    std::vector<std::int32_t> parent_;
    std::vector<double> r_, c_, l_;
    std::vector<int> sink_nodes_;
    bool has_inductance_ = false;
};

}  // namespace cong93

#endif  // CONG93_SIM_RC_TREE_H
