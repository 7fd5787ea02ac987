#include "atree/critical.h"

#include <algorithm>
#include <stdexcept>

#include "atree/generalized.h"

namespace cong93 {

CriticalAtreeResult build_atree_critical(const Net& net,
                                         const std::vector<std::size_t>& critical,
                                         const AtreeOptions& options)
{
    for (const std::size_t i : critical)
        if (i >= net.sinks.size())
            throw std::invalid_argument("build_atree_critical: bad sink index");

    Net crit_net{net.source, {}, {}};
    Net rest_net{net.source, {}, {}};
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
        const bool is_crit =
            std::find(critical.begin(), critical.end(), i) != critical.end();
        Net& dst = is_crit ? crit_net : rest_net;
        dst.sinks.push_back(net.sinks[i]);
        dst.sink_caps.push_back(net.sink_cap(i));
    }

    CriticalAtreeResult res{RoutingTree(net.source)};
    if (!crit_net.sinks.empty()) {
        const AtreeResult crit = build_atree_general(crit_net, options);
        graft(res.tree, res.tree.root(), crit.tree);
        res.safe_moves += crit.safe_moves;
        res.heuristic_moves += crit.heuristic_moves;
        res.critical_cost = crit.cost;
        res.cost += crit.cost;
    }
    if (!rest_net.sinks.empty()) {
        const AtreeResult rest = build_atree_general(rest_net, options);
        graft(res.tree, res.tree.root(), rest.tree);
        res.safe_moves += rest.safe_moves;
        res.heuristic_moves += rest.heuristic_moves;
        res.cost += rest.cost;
    }
    return res;
}

}  // namespace cong93
