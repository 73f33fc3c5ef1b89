#include "matching/blossom.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "matching/error.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"

namespace sic::matching {

namespace {

/// Slack recorded against "no best edge" (bestedge -1), so that one strict
/// < both accepts the first candidate and keeps the first of equal-slack
/// candidates, as the sequential edge-list rules do.
constexpr std::int64_t kNoSlack = std::numeric_limits<std::int64_t>::max();

/// One row of a vertex scan: everything the least-slack pass reads,
/// hoisted out of the solver so the pass runs in registers.
struct RowScan {
  const int* inblossom;
  const int* label;
  const std::int64_t* dual;
  const std::int64_t* weight;  ///< row v of the weight matrix
  int* bestedge;
  std::int64_t* bestslack;
  std::int64_t dv;  ///< v's dual
  int from;         ///< endpoint(v, w) == from | w
  int bv;           ///< v's top-level blossom
  int n;
};

/// The least-slack pass of a vertex scan over [w, n): edges to other
/// S-blossoms update v's best edge (\p best, \p best_slack), edges to free
/// vertices theirs. Stops at the first tight edge to another blossom and
/// returns its index, or n. Feasibility keeps every such slack >= 0, so
/// tight means kslack <= 0.
int scan_until_tight(const RowScan& r, int w, int& best,
                     std::int64_t& best_slack) {
  for (; w < r.n; ++w) {
    const int bw = r.inblossom[w];
    const std::int64_t kslack = r.dv + r.dual[w] - 2 * r.weight[w];
    if (bw != r.bv && kslack <= 0) return w;
    const int lbw = r.label[bw];
    const int p = r.from | w;
    const bool take_s = (lbw == 1) & (bw != r.bv) & (kslack < best_slack);
    best = take_s ? p : best;
    best_slack = take_s ? kslack : best_slack;
    const std::int64_t cur = r.bestslack[w];
    const int cur_edge = r.bestedge[w];
    const bool take_free = (lbw != 1) & (r.label[w] == 0) & (kslack < cur);
    r.bestedge[w] = take_free ? p : cur_edge;
    r.bestslack[w] = take_free ? kslack : cur;
  }
  return r.n;
}

/// The primal-dual weighted blossom matcher on a complete graph, in the
/// maximum-cardinality mode perfect matching needs. All state lives in
/// flat arrays indexed by vertex (0..n-1) or blossom id (0..2n-1; ids >= n
/// are non-trivial blossoms), sized to the largest graph solved so far and
/// reused by every later solve. Labels: 0 free, 1 S, 2 T; bit 4 marks a
/// blossom on the scan_blossom trace.
///
/// An endpoint is a vertex pair packed as (from << shift_) | to: the end of
/// edge {from, to} that lies at `to`. It plays the role of the edge-list
/// formulation's endpoint index p, with flip() for p ^ 1; an edge is named
/// by either of its endpoints.
///
/// The edge-list formulation also flags each edge it finds tight during a
/// stage (allowedge). Every flagged edge has an S endpoint, and an S label
/// lasts the whole stage, so the edge's slack can only fall from 0; dual
/// feasibility keeps it at 0 while its ends lie in different top-level
/// blossoms. The slack test alone makes the same decisions, so no flags
/// are kept.
class DenseBlossom {
 public:
  struct Stats {
    std::uint64_t stages = 0;
    std::uint64_t augmentations = 0;
    std::uint64_t edge_visits = 0;
    std::uint64_t blossoms_formed = 0;
    std::uint64_t dual_updates = 0;
  };

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] bool matched(int v) const { return mate_[v] != -1; }
  /// v's partner after solve(), when matched.
  [[nodiscard]] int mate(int v) const { return vert(mate_[v]); }

  /// Sizes the state for \p costs and quantizes w = max_cost − cost onto
  /// an even-integer grid (exact dual arithmetic needs even integer
  /// weights; evenness keeps delta3 = slack/2 integral).
  void load(const CostMatrix& costs) {
    const int n = costs.size();
    SIC_CHECK_MSG(n <= (1 << 15), "blossom matcher supports n <= 32768");
    nv_ = n;
    shift_ = 1;
    while ((1 << shift_) < n) ++shift_;
    mask_ = (1 << shift_) - 1;
    double max_cost = -std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const double c = costs.at(i, j);
        if (!std::isfinite(c)) {
          throw MatchingError("blossom matching needs finite costs, got cost(" +
                              std::to_string(i) + ", " + std::to_string(j) +
                              ") = " + std::to_string(c));
        }
        max_cost = std::max(max_cost, c);
      }
    }
    double maxabs = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        maxabs = std::max(maxabs, std::fabs(max_cost - costs.at(i, j)));
      }
    }
    const double scale =
        maxabs > 0.0 ? static_cast<double>(std::int64_t{1} << 26) / maxabs : 1.0;
    const std::size_t un = static_cast<std::size_t>(n);
    weight_.assign(un * un, 0);
    std::int64_t maxweight = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const std::int64_t w = 2 * std::llround((max_cost - costs.at(i, j)) * scale);
        weight_[static_cast<std::size_t>(i) * un + j] = w;
        weight_[static_cast<std::size_t>(j) * un + i] = w;
        maxweight = std::max(maxweight, w);
      }
    }
    // Per-blossom lists keep their capacity; the outer vectors only grow.
    if (blossomchilds_.size() < 2 * un) {
      blossomchilds_.resize(2 * un);
      blossomendps_.resize(2 * un);
      blossombestedges_.resize(2 * un);
    }
    for (int b = 0; b < 2 * n; ++b) {
      blossomchilds_[b].clear();
      blossomendps_[b].clear();
    }
    mate_.assign(un, -1);
    label_.resize(2 * un);
    labelend_.assign(2 * un, -1);
    inblossom_.resize(un);
    blossomparent_.assign(2 * un, -1);
    blossombase_.assign(2 * un, -1);
    for (int v = 0; v < n; ++v) inblossom_[v] = blossombase_[v] = v;
    bestedge_.resize(2 * un);
    bestslack_.resize(2 * un);
    has_bestedges_.assign(2 * un, 0);
    unusedblossoms_.clear();
    for (int b = 2 * n - 1; b >= n; --b) unusedblossoms_.push_back(b);
    dualvar_.assign(2 * un, 0);
    std::fill(dualvar_.begin(), dualvar_.begin() + n, maxweight);
    bestedgeto_.assign(2 * un, -1);
    bestslackto_.assign(2 * un, kNoSlack);
    stats_ = Stats{};
  }

  void solve() {
    const int n = nv_;
    for (int stage = 0; stage < n; ++stage) {
      ++stats_.stages;
      std::fill(label_.begin(), label_.end(), 0);
      std::fill(bestedge_.begin(), bestedge_.end(), -1);
      std::fill(bestslack_.begin(), bestslack_.end(), kNoSlack);
      for (int b = n; b < 2 * n; ++b) {
        blossombestedges_[b].clear();
        has_bestedges_[b] = 0;
      }
      queue_.clear();
      for (int v = 0; v < n; ++v) {
        if (mate_[v] == -1 && label_[inblossom_[v]] == 0) assign_label(v, 1, -1);
      }
      bool augmented = false;
      for (;;) {
        while (!queue_.empty() && !augmented) {
          const int v = queue_.back();
          queue_.pop_back();
          augmented = scan_vertex(v);
        }
        if (augmented || !update_duals()) break;
      }
      if (!augmented) break;  // optimum reached
      // End of stage: expand all S-blossoms with zero dual.
      for (int b = n; b < 2 * n; ++b) {
        if (blossomparent_[b] == -1 && blossombase_[b] >= 0 &&
            label_[b] == 1 && dualvar_[b] == 0) {
          expand_blossom(b, true);
        }
      }
    }
  }

 private:
  [[nodiscard]] int endpoint(int from, int to) const {
    return (from << shift_) | to;
  }
  [[nodiscard]] int vert(int p) const { return p & mask_; }
  [[nodiscard]] int other(int p) const { return p >> shift_; }
  [[nodiscard]] int flip(int p) const { return endpoint(vert(p), other(p)); }
  [[nodiscard]] int lower(int p) const { return std::min(vert(p), other(p)); }
  [[nodiscard]] int upper(int p) const { return std::max(vert(p), other(p)); }
  [[nodiscard]] std::int64_t slack(int p) const {
    const int a = other(p);
    const int b = vert(p);
    return dualvar_[a] + dualvar_[b] -
           2 * weight_[static_cast<std::size_t>(a) * nv_ + b];
  }
  [[nodiscard]] int toplabel(int v) const { return label_[inblossom_[v]]; }
  void set_bestedge(int b, int p, std::int64_t s) {
    bestedge_[b] = p;
    bestslack_[b] = s;
  }

  /// Scans the edges of S-vertex v in ascending neighbour order; returns
  /// true once an augmenting path was found and applied. Duals are fixed
  /// while the queue drains, so v's dual and weight row are loop
  /// constants. Tight edges are rare: each ends a least-slack pass, takes
  /// scan_tight_edge(), and the next pass re-reads the state it changed.
  bool scan_vertex(int v) {
    SIC_DCHECK(label_[inblossom_[v]] == 1);
    const std::size_t row = static_cast<std::size_t>(v) * nv_;
    RowScan r{inblossom_.data(),    label_.data(),     dualvar_.data(),
              weight_.data() + row, bestedge_.data(),  bestslack_.data(),
              dualvar_[v],          v << shift_,       inblossom_[v],
              nv_};
    for (int w = 0;; ++w) {
      int best = bestedge_[r.bv];
      std::int64_t best_slack = bestslack_[r.bv];
      w = scan_until_tight(r, w, best, best_slack);
      set_bestedge(r.bv, best, best_slack);
      if (w == nv_) break;
      if (scan_tight_edge(v, w)) {
        // Visits counted up to and including the augmenting edge.
        stats_.edge_visits += static_cast<std::uint64_t>(w + (w < v ? 1 : 0));
        return true;
      }
      r.bv = inblossom_[v];
    }
    stats_.edge_visits += static_cast<std::uint64_t>(nv_ - 1);
    return false;
  }

  /// The labeling step for a tight edge from S-vertex v to w in another
  /// top-level blossom; returns true when it augmented.
  bool scan_tight_edge(int v, int w) {
    const int p = endpoint(v, w);  // the end of {v, w} at w
    const int lbw = label_[inblossom_[w]];
    if (lbw == 0) {
      assign_label(w, 2, flip(p));
    } else if (lbw == 1) {
      const int base = scan_blossom(v, w);
      if (base < 0) {
        augment_matching(p);
        return true;
      }
      add_blossom(base, p);
    } else if (label_[w] == 0) {
      SIC_DCHECK(lbw == 2);
      label_[w] = 2;
      labelend_[w] = flip(p);
    }
    return false;
  }

  /// No augmenting path under the current duals: applies the dual
  /// adjustment delta and acts on the edge or blossom that set it. Returns
  /// false when the optimum is reached. The edge-list formulation takes
  /// the first least candidate over delta2 (free vertices), then delta3
  /// (S-blossoms), then delta4 (T-blossoms); the first least of each kind,
  /// compared with strict < in that order, is the same choice. One vertex
  /// pass finds delta2 and the trivial-blossom half of delta3; one pass
  /// over the live non-trivial blossoms [n, 2n) finishes delta3 and finds
  /// delta4.
  bool update_duals() {
    ++stats_.dual_updates;
    const int n = nv_;
    std::int64_t d2 = kNoSlack;
    int e2 = -1;
    std::int64_t d3 = kNoSlack;
    int e3 = -1;
    for (int v = 0; v < n; ++v) {
      const int bv = inblossom_[v];
      const int lbl = label_[bv];
      const std::int64_t s = bestslack_[v];
      const int e = bestedge_[v];
      if ((lbl == 0) & (s < d2)) {
        d2 = s;
        e2 = e;
      }
      if ((bv == v) & (lbl == 1) & (e != -1) && s / 2 < d3) {
        SIC_DCHECK(s % 2 == 0);
        d3 = s / 2;
        e3 = e;
      }
    }
    std::int64_t d4 = kNoSlack;
    int b4 = -1;
    for (int b = n; b < 2 * n; ++b) {
      if ((blossombase_[b] < 0) | (blossomparent_[b] != -1)) continue;
      const int lbl = label_[b];
      if ((lbl == 1) & (bestedge_[b] != -1) && bestslack_[b] / 2 < d3) {
        SIC_DCHECK(bestslack_[b] % 2 == 0);
        d3 = bestslack_[b] / 2;
        e3 = bestedge_[b];
      }
      if ((lbl == 2) && (b4 == -1 || dualvar_[b] < d4)) {
        d4 = dualvar_[b];
        b4 = b;
      }
    }
    int deltatype = -1;
    std::int64_t delta = 0;
    if (e2 != -1) {
      deltatype = 2;
      delta = d2;
    }
    if (e3 != -1 && (deltatype == -1 || d3 < delta)) {
      deltatype = 3;
      delta = d3;
    }
    if (b4 != -1 && (deltatype == -1 || d4 < delta)) {
      deltatype = 4;
      delta = d4;
    }
    if (deltatype == -1) {
      // Maximum-cardinality optimum reached; final clean-up delta.
      deltatype = 1;
      delta = std::max<std::int64_t>(
          0, *std::min_element(dualvar_.begin(), dualvar_.begin() + n));
    }

    // S-vertices lose delta, T-vertices gain it; top-level blossom duals
    // move the other way. A cached least slack moves with its two ends'
    // duals, so it is refreshed by the same shifts, in exact integers. The
    // final delta ends the solve: nothing reads blossom duals or slacks
    // after it.
    const std::int64_t shift_by[3] = {0, -delta, delta};
    const auto edge_shift = [&](int p) {
      return shift_by[toplabel(other(p))] + shift_by[toplabel(vert(p))];
    };
    for (int v = 0; v < n; ++v) {
      dualvar_[v] += shift_by[toplabel(v)];
      if (bestedge_[v] != -1) bestslack_[v] += edge_shift(bestedge_[v]);
    }
    if (deltatype == 1) return false;
    for (int b = n; b < 2 * n; ++b) {
      if ((blossombase_[b] >= 0) & (blossomparent_[b] == -1)) {
        dualvar_[b] -= shift_by[label_[b]];
      }
      if (bestedge_[b] != -1) bestslack_[b] += edge_shift(bestedge_[b]);
    }

    if (deltatype == 4) {
      expand_blossom(b4, false);
      return true;
    }
    const int edge = deltatype == 2 ? e2 : e3;
    // The edge list's edges[k].i, unless (delta2) that end is the free one.
    int i = lower(edge);
    if (deltatype == 2 && toplabel(i) == 0) i = upper(edge);
    SIC_DCHECK(toplabel(i) == 1);
    queue_.push_back(i);
    return true;
  }

  void append_leaves(int b, std::vector<int>& out) const {
    if (b < nv_) {
      out.push_back(b);
      return;
    }
    for (const int child : blossomchilds_[b]) append_leaves(child, out);
  }

  /// Labels the top-level blossom containing w as S (t=1) or T (t=2),
  /// entered through endpoint p.
  void assign_label(int w, int t, int p) {
    const int b = inblossom_[w];
    SIC_DCHECK(label_[w] == 0 && label_[b] == 0);
    label_[w] = label_[b] = t;
    labelend_[w] = labelend_[b] = p;
    set_bestedge(w, -1, kNoSlack);
    set_bestedge(b, -1, kNoSlack);
    if (t == 1) {
      append_leaves(b, queue_);
    } else {
      const int m = mate_[blossombase_[b]];
      SIC_DCHECK(m >= 0);
      assign_label(vert(m), 1, flip(m));
    }
  }

  /// Traces back from the S-vertices v and w; returns the base of a new
  /// blossom, or -1 if an augmenting path was found instead.
  int scan_blossom(int v, int w) {
    path_.clear();
    int base = -1;
    while (v != -1 || w != -1) {
      int b = inblossom_[v];
      if (label_[b] & 4) {
        base = blossombase_[b];
        break;
      }
      SIC_DCHECK(label_[b] == 1);
      path_.push_back(b);
      label_[b] |= 4;
      if (mate_[blossombase_[b]] == -1) {
        v = -1;  // reached a single vertex; swap to the other side
      } else {
        v = vert(mate_[blossombase_[b]]);
        b = inblossom_[v];
        SIC_DCHECK(label_[b] == 2);
        SIC_DCHECK(labelend_[b] >= 0);
        v = vert(labelend_[b]);
      }
      if (w != -1) std::swap(v, w);
    }
    for (const int b : path_) label_[b] &= ~4;
    return base;
  }

  /// Shrinks the cycle through edge k with the given base into a new
  /// S-blossom.
  void add_blossom(int base, int k) {
    int v = lower(k);
    int w = upper(k);
    const int bb = inblossom_[base];
    int bv = inblossom_[v];
    int bw = inblossom_[w];
    SIC_CHECK_MSG(!unusedblossoms_.empty(), "blossom ids exhausted");
    ++stats_.blossoms_formed;
    const int b = unusedblossoms_.back();
    unusedblossoms_.pop_back();
    blossombase_[b] = base;
    blossomparent_[b] = -1;
    blossomparent_[bb] = b;
    auto& path = blossomchilds_[b];
    auto& endps = blossomendps_[b];
    path.clear();
    endps.clear();
    while (bv != bb) {
      blossomparent_[bv] = b;
      path.push_back(bv);
      endps.push_back(labelend_[bv]);
      SIC_DCHECK(labelend_[bv] >= 0);
      v = vert(labelend_[bv]);
      bv = inblossom_[v];
    }
    path.push_back(bb);
    std::reverse(path.begin(), path.end());
    std::reverse(endps.begin(), endps.end());
    endps.push_back(endpoint(upper(k), lower(k)));  // k's end at its lower vertex
    while (bw != bb) {
      blossomparent_[bw] = b;
      path.push_back(bw);
      endps.push_back(flip(labelend_[bw]));
      SIC_DCHECK(labelend_[bw] >= 0);
      w = vert(labelend_[bw]);
      bw = inblossom_[w];
    }
    SIC_DCHECK(label_[bb] == 1);
    label_[b] = 1;
    labelend_[b] = labelend_[bb];
    dualvar_[b] = 0;
    leaves_.clear();
    append_leaves(b, leaves_);
    for (const int leaf : leaves_) {
      if (label_[inblossom_[leaf]] == 2) queue_.push_back(leaf);
      inblossom_[leaf] = b;
    }
    // Merge the sub-blossoms' least-slack edges to other S-blossoms; ties
    // keep the first edge offered. A child without a list offers every
    // edge of every leaf in ascending neighbour order. Only edges to other
    // S-blossoms can be taken, so those rows are offered only to the
    // vertices of other S-blossoms, listed once in ascending order.
    const auto offer = [&](int p, int bj, std::int64_t s) {
      const bool take = s < bestslackto_[bj];
      bestedgeto_[bj] = take ? p : bestedgeto_[bj];
      bestslackto_[bj] = take ? s : bestslackto_[bj];
    };
    svertices_.clear();
    for (int j = 0; j < nv_; ++j) {
      const int bj = inblossom_[j];
      if ((bj != b) & (label_[bj] == 1)) svertices_.push_back(j);
    }
    for (const int child : path) {
      if (has_bestedges_[child] == 0) {
        leaves_.clear();
        append_leaves(child, leaves_);
        for (const int leaf : leaves_) {
          const std::int64_t* row = weight_.data() + static_cast<std::size_t>(leaf) * nv_;
          const std::int64_t dleaf = dualvar_[leaf];
          const int from = leaf << shift_;
          for (const int j : svertices_) {
            offer(from | j, inblossom_[j], dleaf + dualvar_[j] - 2 * row[j]);
          }
        }
      } else {
        for (const int p : blossombestedges_[child]) {
          const int j = inblossom_[vert(p)] == b ? other(p) : vert(p);
          const int bj = inblossom_[j];
          if ((bj != b) & (label_[bj] == 1)) offer(p, bj, slack(p));
        }
      }
      blossombestedges_[child].clear();
      has_bestedges_[child] = 0;
      set_bestedge(child, -1, kNoSlack);
    }
    auto& best = blossombestedges_[b];
    best.clear();
    set_bestedge(b, -1, kNoSlack);
    for (int bj = 0; bj < 2 * nv_; ++bj) {
      const int p = bestedgeto_[bj];
      if (p == -1) continue;
      best.push_back(p);
      if (bestslackto_[bj] < bestslack_[b]) set_bestedge(b, p, bestslackto_[bj]);
      bestedgeto_[bj] = -1;
      bestslackto_[bj] = kNoSlack;
    }
    has_bestedges_[b] = 1;
  }

  /// Dissolves blossom b into its children. During a stage (endstage ==
  /// false) a T-blossom's children must be relabeled along the alternating
  /// path from the entry point to the base.
  void expand_blossom(int b, bool endstage) {
    // Nothing below touches b's own child and endpoint lists until they
    // are cleared at the end, so they are walked in place.
    const std::vector<int>& childs = blossomchilds_[b];
    const std::vector<int>& endps = blossomendps_[b];
    for (const int s : childs) {
      blossomparent_[s] = -1;
      if (s < nv_) {
        inblossom_[s] = s;
      } else if (endstage && dualvar_[s] == 0) {
        expand_blossom(s, endstage);
      } else {
        leaves_.clear();
        append_leaves(s, leaves_);
        for (const int leaf : leaves_) inblossom_[leaf] = s;
      }
    }
    if (!endstage && label_[b] == 2) {
      SIC_DCHECK(labelend_[b] >= 0);
      const int entrychild = inblossom_[other(labelend_[b])];
      const int len = static_cast<int>(childs.size());
      int j = static_cast<int>(
          std::find(childs.begin(), childs.end(), entrychild) - childs.begin());
      SIC_DCHECK(j < len);
      const bool endptrick = (j & 1) == 0;
      const int jstep = endptrick ? -1 : 1;
      if (!endptrick) j -= len;
      const auto child_at = [&](int idx) { return childs[(idx % len + len) % len]; };
      // The edge list's endps[j - endptrick] ^ endptrick.
      const auto endp_at = [&](int idx) {
        const int p = endps[((idx - (endptrick ? 1 : 0)) % len + len) % len];
        return endptrick ? flip(p) : p;
      };
      int p = labelend_[b];
      while (j != 0) {
        label_[other(p)] = 0;
        label_[other(endp_at(j))] = 0;
        assign_label(other(p), 2, p);
        j += jstep;
        p = endp_at(j);
        j += jstep;
      }
      const int bv = child_at(j);
      label_[other(p)] = label_[bv] = 2;
      labelend_[other(p)] = labelend_[bv] = p;
      set_bestedge(bv, -1, kNoSlack);
      j += jstep;
      while (child_at(j) != entrychild) {
        const int bw = child_at(j);
        if (label_[bw] == 1) {
          j += jstep;
          continue;
        }
        leaves_.clear();
        append_leaves(bw, leaves_);
        int labeled = -1;
        for (const int leaf : leaves_) {
          if (label_[leaf] != 0) {
            labeled = leaf;
            break;
          }
        }
        if (labeled != -1) {
          SIC_DCHECK(label_[labeled] == 2);
          SIC_DCHECK(inblossom_[labeled] == bw);
          label_[labeled] = 0;
          label_[vert(mate_[blossombase_[bw]])] = 0;
          assign_label(labeled, 2, labelend_[labeled]);
        }
        j += jstep;
      }
    }
    label_[b] = -1;
    labelend_[b] = -1;
    blossomchilds_[b].clear();
    blossomendps_[b].clear();
    blossombase_[b] = -1;
    blossombestedges_[b].clear();
    has_bestedges_[b] = 0;
    set_bestedge(b, -1, kNoSlack);
    unusedblossoms_.push_back(b);
  }

  /// Swaps matched/unmatched edges inside blossom b so that vertex v
  /// becomes the blossom's base.
  void augment_blossom(int b, int v) {
    int t = v;
    while (blossomparent_[t] != b) t = blossomparent_[t];
    if (t >= nv_) augment_blossom(t, v);
    auto& childs = blossomchilds_[b];
    auto& endps = blossomendps_[b];
    const int len = static_cast<int>(childs.size());
    const int i = static_cast<int>(std::find(childs.begin(), childs.end(), t) -
                                   childs.begin());
    SIC_DCHECK(i < len);
    const bool endptrick = (i & 1) == 0;
    const int jstep = endptrick ? -1 : 1;
    int j = endptrick ? i : i - len;
    const auto child_at = [&](int idx) { return childs[(idx % len + len) % len]; };
    const auto endp_at = [&](int idx) {
      const int p = endps[((idx - (endptrick ? 1 : 0)) % len + len) % len];
      return endptrick ? flip(p) : p;
    };
    while (j != 0) {
      j += jstep;
      int tb = child_at(j);
      const int p = endp_at(j);
      if (tb >= nv_) augment_blossom(tb, vert(p));
      j += jstep;
      tb = child_at(j);
      if (tb >= nv_) augment_blossom(tb, other(p));
      mate_[vert(p)] = flip(p);
      mate_[other(p)] = p;
    }
    std::rotate(childs.begin(), childs.begin() + i, childs.end());
    std::rotate(endps.begin(), endps.begin() + i, endps.end());
    blossombase_[b] = blossombase_[childs.front()];
    SIC_DCHECK(blossombase_[b] == v);
  }

  /// Augments the matching along the path through edge k, from its lower
  /// end first.
  void augment_matching(int k) {
    ++stats_.augmentations;
    const std::pair<int, int> starts[2] = {
        {lower(k), endpoint(lower(k), upper(k))},
        {upper(k), endpoint(upper(k), lower(k))}};
    for (const auto& [start_s, start_p] : starts) {
      int s = start_s;
      int p = start_p;
      for (;;) {
        const int bs = inblossom_[s];
        SIC_DCHECK(label_[bs] == 1);
        SIC_DCHECK(labelend_[bs] == mate_[blossombase_[bs]]);
        if (bs >= nv_) augment_blossom(bs, s);
        mate_[s] = p;
        if (labelend_[bs] == -1) break;  // reached a single vertex
        const int t = vert(labelend_[bs]);
        const int bt = inblossom_[t];
        SIC_DCHECK(label_[bt] == 2);
        SIC_DCHECK(labelend_[bt] >= 0);
        s = vert(labelend_[bt]);
        const int j = other(labelend_[bt]);
        SIC_DCHECK(blossombase_[bt] == t);
        if (bt >= nv_) augment_blossom(bt, j);
        mate_[j] = labelend_[bt];
        p = flip(labelend_[bt]);
      }
    }
  }

  int nv_ = 0;
  int shift_ = 1;
  int mask_ = 1;
  std::vector<std::int64_t> weight_;   ///< n×n quantized weights, mirrored
  std::vector<int> mate_;
  std::vector<int> label_;
  std::vector<int> labelend_;
  std::vector<int> inblossom_;
  std::vector<int> blossomparent_;
  std::vector<int> blossombase_;
  std::vector<std::vector<int>> blossomchilds_;
  std::vector<std::vector<int>> blossomendps_;
  std::vector<int> bestedge_;
  /// slack(bestedge_[b]), or kNoSlack. Slacks move only in the dual
  /// update, which refreshes this cache, so it is exact wherever
  /// bestedge_[b] is set.
  std::vector<std::int64_t> bestslack_;
  std::vector<std::vector<int>> blossombestedges_;
  std::vector<std::uint8_t> has_bestedges_;
  std::vector<int> unusedblossoms_;
  std::vector<std::int64_t> dualvar_;
  std::vector<int> queue_;
  std::vector<int> leaves_;      ///< blossom-leaf scratch
  std::vector<int> svertices_;   ///< add_blossom: vertices of other S-blossoms
  std::vector<int> path_;        ///< scan_blossom trace scratch
  std::vector<int> bestedgeto_;  ///< add_blossom merge scratch, all -1
  std::vector<std::int64_t> bestslackto_;  ///< its slacks, all kNoSlack
  Stats stats_;
};

}  // namespace

Matching min_weight_perfect_matching(const CostMatrix& costs) {
  const int n = costs.size();
  if (n % 2 != 0) {
    throw MatchingError(
        "blossom perfect matching requires an even vertex count, got n = " +
        std::to_string(n));
  }
  Matching result;
  if (n == 0) return result;
  obs::MetricsRegistry* reg = obs::metrics();
  obs::ScopedTimer timer{
      reg != nullptr ? &reg->histogram("matching.blossom.wall_s") : nullptr,
      reg != nullptr ? &reg->counter("matching.blossom.calls") : nullptr};
  // One solver state per thread, not per caller: the deployment engine
  // keeps a PairCostEngine per AP (2025 of them on large layouts), and a
  // state each would hold every AP's largest n² at once.
  thread_local DenseBlossom solver;
  solver.load(costs);
  solver.solve();
  int unmatched = 0;
  for (int v = 0; v < n; ++v) {
    if (!solver.matched(v)) {
      ++unmatched;
      continue;
    }
    const int u = solver.mate(v);
    SIC_CHECK(u != v && solver.mate(u) == v);
    if (v < u) {
      result.pairs.emplace_back(v, u);
      result.total_cost += costs.at(v, u);
    }
  }
  if (unmatched != 0) {
    throw MatchingError("blossom matching left " + std::to_string(unmatched) +
                        " of " + std::to_string(n) +
                        " vertices unmatched (matching is not perfect)");
  }
  if (reg != nullptr) {
    const auto& st = solver.stats();
    reg->counter("matching.blossom.stages").inc(st.stages);
    reg->counter("matching.blossom.augmentations").inc(st.augmentations);
    reg->counter("matching.blossom.edge_visits").inc(st.edge_visits);
    reg->counter("matching.blossom.blossoms_formed").inc(st.blossoms_formed);
    reg->counter("matching.blossom.dual_updates").inc(st.dual_updates);
    reg->counter("matching.blossom.vertices").inc(
        static_cast<std::uint64_t>(n));
  }
  return result;
}

}  // namespace sic::matching
