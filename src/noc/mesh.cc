#include "noc/mesh.h"

#include <algorithm>
#include <deque>

#include "sim/log.h"
#include "sim/trace.h"

namespace gp::noc {

Mesh::Mesh(const MeshConfig &config) : config_(config)
{
    if (config_.dimX == 0 || config_.dimY == 0 || config_.dimZ == 0)
        sim::fatal("mesh: dimensions must be nonzero");
    linkBusy_.assign(size_t(nodeCount()) * 6, 0);
    messages_ = &stats_.counter("messages");
    flits_ = &stats_.counter("flits");
    linkStallCycles_ = &stats_.counter("link_stall_cycles");
    hopsTraversed_ = &stats_.counter("hops_traversed");
    // Uncontended latency for the default 4x2x2 mesh tops out around
    // 2*inject + 7 hops * hopLatency; 64 cycles of range leaves room
    // for queueing before the overflow bucket.
    deliveryLatency_ = &stats_.histogram("delivery_latency", 16, 64);
}

Coord
Mesh::coordOf(unsigned node) const
{
    Coord c;
    c.x = node % config_.dimX;
    c.y = (node / config_.dimX) % config_.dimY;
    c.z = node / (config_.dimX * config_.dimY);
    return c;
}

unsigned
Mesh::nodeAt(Coord c) const
{
    return c.x + config_.dimX * (c.y + config_.dimY * c.z);
}

unsigned
Mesh::hops(unsigned from, unsigned to) const
{
    const Coord a = coordOf(from);
    const Coord b = coordOf(to);
    auto dist = [](unsigned p, unsigned q) {
        return p > q ? p - q : q - p;
    };
    return dist(a.x, b.x) + dist(a.y, b.y) + dist(a.z, b.z);
}

uint64_t
Mesh::chargeHop(uint64_t link, uint64_t t, unsigned flits)
{
    auto &busy = linkBusy_[link];
    const uint64_t start = std::max(t, busy);
    if (start > t)
        (*linkStallCycles_) += start - t;
    busy = start + flits; // link occupied for the message length
    (*hopsTraversed_)++;
    return start + config_.hopLatency;
}

uint64_t
Mesh::send(unsigned from, unsigned to, uint64_t now, unsigned flits)
{
    if (from >= nodeCount() || to >= nodeCount())
        sim::fatal("mesh: node id out of range");
    if (from == to)
        return now;

    (*messages_)++;
    (*flits_) += flits;

    uint64_t t = now + config_.injectLatency;

    // Dimension-order routing: X, then Y, then Z. At each hop the
    // message occupies the outgoing link for `flits` cycles.
    Coord cur = coordOf(from);
    const Coord dst = coordOf(to);
    while (cur.x != dst.x || cur.y != dst.y || cur.z != dst.z) {
        unsigned direction;
        Coord next = cur;
        if (cur.x != dst.x) {
            direction = cur.x < dst.x ? 0 : 1;
            next.x += cur.x < dst.x ? 1 : -1;
        } else if (cur.y != dst.y) {
            direction = cur.y < dst.y ? 2 : 3;
            next.y += cur.y < dst.y ? 1 : -1;
        } else {
            direction = cur.z < dst.z ? 4 : 5;
            next.z += cur.z < dst.z ? 1 : -1;
        }

        t = chargeHop(linkId(nodeAt(cur), direction), t, flits);
        cur = next;
    }

    const uint64_t done = t + config_.injectLatency + flits - 1;
    deliveryLatency_->sample(done - now);
    GP_TRACE(NoC, now, from, "send",
             "dst=%u flits=%u hops=%u latency=%llu", to, flits,
             hops(from, to),
             static_cast<unsigned long long>(done - now));
    return done;
}

int
Mesh::neighbor(unsigned node, unsigned direction) const
{
    Coord c = coordOf(node);
    switch (direction) {
      case 0:
        if (c.x + 1 >= config_.dimX)
            return -1;
        c.x++;
        break;
      case 1:
        if (c.x == 0)
            return -1;
        c.x--;
        break;
      case 2:
        if (c.y + 1 >= config_.dimY)
            return -1;
        c.y++;
        break;
      case 3:
        if (c.y == 0)
            return -1;
        c.y--;
        break;
      case 4:
        if (c.z + 1 >= config_.dimZ)
            return -1;
        c.z++;
        break;
      case 5:
        if (c.z == 0)
            return -1;
        c.z--;
        break;
      default:
        return -1;
    }
    return int(nodeAt(c));
}

void
Mesh::failNode(unsigned node)
{
    if (node >= nodeCount())
        sim::fatal("mesh: failNode id out of range");
    if (deadNodes_.empty())
        deadNodes_.assign(nodeCount(), 0);
    if (deadNodes_[node])
        return;
    deadNodes_[node] = 1;
    deadNodeCount_++;
    degraded_ = true;
    // The node's own links die with it; routing also refuses to pass
    // *through* a dead node, so inbound links are implicitly dead.
    for (unsigned d = 0; d < 6; ++d)
        if (neighbor(node, d) >= 0)
            failLink(node, d);
    GP_TRACE(NoC, 0, node, "node-fail-stop", "node %u dead", node);
}

void
Mesh::failLink(unsigned node, unsigned direction)
{
    if (node >= nodeCount() || direction >= 6 ||
        neighbor(node, direction) < 0)
        sim::fatal("mesh: failLink names no physical link");
    if (downLinks_.empty())
        downLinks_.assign(size_t(nodeCount()) * 6, 0);
    auto &down = downLinks_[linkId(node, direction)];
    if (down)
        return;
    down = 1;
    downLinkCount_++;
    degraded_ = true;
    GP_TRACE(NoC, 0, node, "link-down", "node %u dir %u", node,
             direction);
}

bool
Mesh::dimOrderRoute(
    unsigned from, unsigned to,
    std::vector<std::pair<uint64_t, unsigned>> &hops_out) const
{
    Coord cur = coordOf(from);
    const Coord dst = coordOf(to);
    unsigned at = from;
    while (cur.x != dst.x || cur.y != dst.y || cur.z != dst.z) {
        unsigned direction;
        Coord next = cur;
        if (cur.x != dst.x) {
            direction = cur.x < dst.x ? 0 : 1;
            next.x += cur.x < dst.x ? 1 : -1;
        } else if (cur.y != dst.y) {
            direction = cur.y < dst.y ? 2 : 3;
            next.y += cur.y < dst.y ? 1 : -1;
        } else {
            direction = cur.z < dst.z ? 4 : 5;
            next.z += cur.z < dst.z ? 1 : -1;
        }
        const unsigned next_id = nodeAt(next);
        if (linkDown(at, direction) ||
            (next_id != to && nodeDead(next_id)))
            return false;
        hops_out.emplace_back(linkId(at, direction), next_id);
        at = next_id;
        cur = next;
    }
    return true;
}

bool
Mesh::detourRoute(
    unsigned from, unsigned to,
    std::vector<std::pair<uint64_t, unsigned>> &hops_out) const
{
    // Breadth-first over live nodes and up links, expanding neighbors
    // in the fixed +x/-x/+y/-y/+z/-z order, so the route — and thus
    // the timing of everything behind it — is a pure function of the
    // failure set, never of host iteration order.
    const unsigned n = nodeCount();
    std::vector<int> parent(n, -1);     // previous node on the path
    std::vector<int8_t> via(n, -1);     // direction taken into node
    std::vector<char> seen(n, 0);
    std::deque<unsigned> frontier;
    seen[from] = 1;
    frontier.push_back(from);
    while (!frontier.empty() && !seen[to]) {
        const unsigned at = frontier.front();
        frontier.pop_front();
        for (unsigned d = 0; d < 6; ++d) {
            const int next = neighbor(at, d);
            if (next < 0 || seen[next] || linkDown(at, d))
                continue;
            if (unsigned(next) != to && nodeDead(unsigned(next)))
                continue;
            seen[next] = 1;
            parent[next] = int(at);
            via[next] = int8_t(d);
            frontier.push_back(unsigned(next));
        }
    }
    if (!seen[to])
        return false;
    const size_t base = hops_out.size();
    for (unsigned at = to; at != from; at = unsigned(parent[at]))
        hops_out.emplace_back(
            linkId(unsigned(parent[at]), unsigned(via[at])), at);
    std::reverse(hops_out.begin() + ptrdiff_t(base), hops_out.end());
    return true;
}

Mesh::SendOutcome
Mesh::trySend(unsigned from, unsigned to, uint64_t now, unsigned flits)
{
    if (!degraded_)
        return SendOutcome{true, send(from, to, now, flits), false};

    if (from >= nodeCount() || to >= nodeCount())
        sim::fatal("mesh: node id out of range");
    if (nodeDead(from) || nodeDead(to)) {
        unreachable_++;
        return SendOutcome{};
    }
    if (from == to)
        return SendOutcome{true, now, false};

    // Prefer the dimension-order route when it survived: pairs whose
    // traffic never touches the failure get exactly the healthy
    // fabric's path and occupancy pattern.
    std::vector<std::pair<uint64_t, unsigned>> route;
    if (!dimOrderRoute(from, to, route)) {
        route.clear();
        if (!detourRoute(from, to, route)) {
            unreachable_++;
            GP_TRACE(NoC, now, from, "unreachable", "dst=%u", to);
            return SendOutcome{};
        }
    }

    (*messages_)++;
    (*flits_) += flits;
    const unsigned manhattan = hops(from, to);
    const bool detoured = route.size() > manhattan;
    uint64_t t = now + config_.injectLatency;
    for (const auto &[link, next] : route) {
        t = chargeHop(link, t, flits);
        (void)next;
    }
    if (detoured) {
        t += (route.size() - manhattan) * config_.detourPenalty;
        detours_++;
    }
    const uint64_t done = t + config_.injectLatency + flits - 1;
    deliveryLatency_->sample(done - now);
    GP_TRACE(NoC, now, from, "send",
             "dst=%u flits=%u hops=%zu%s latency=%llu", to, flits,
             route.size(), detoured ? " (detour)" : "",
             static_cast<unsigned long long>(done - now));
    return SendOutcome{true, done, detoured};
}

} // namespace gp::noc
