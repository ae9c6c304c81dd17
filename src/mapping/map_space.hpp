/**
 * @file
 * The map space M_{a,p} (Definition 2.2) and the three routines the
 * Mind Mappings API requires of every accelerator (Appendix B):
 * getMapping (randomValid), isMember, and getProjection (project).
 *
 * Every searcher spends its step in these routines, so they run without
 * locks or heap allocation: the per-dimension factorization tables are
 * resolved once, in the constructor, per-dimension scratch lives on the
 * stack (rank <= kMaxRank), and the out-parameter / in-place forms reuse
 * the capacity of a caller-owned Mapping. A MapSpace is immutable after
 * construction; any number of threads may use one concurrently.
 */
#pragma once

#include <span>
#include <string>
#include <vector>

#include "arch/accelerator.hpp"
#include "common/rng.hpp"
#include "mapping/mapping.hpp"
#include "workload/problem.hpp"

namespace mm {

class FactorizationTable;

/** The set of valid mappings for one (accelerator, problem) pair. */
class MapSpace
{
  public:
    /**
     * Bind an accelerator and problem. Both must outlive the MapSpace.
     * Throws FatalError if the accelerator cannot host the problem
     * (e.g. fewer allocatable banks than tensors) or the problem has
     * more than kMaxRank dimensions.
     */
    MapSpace(const AcceleratorSpec &arch, const Problem &problem);

    /** The spec and problem are captured by reference: forbid
     * temporaries, which would dangle. */
    MapSpace(AcceleratorSpec &&, const Problem &) = delete;
    MapSpace(const AcceleratorSpec &, Problem &&) = delete;
    MapSpace(AcceleratorSpec &&, Problem &&) = delete;

    const AcceleratorSpec &arch() const { return *archSpec; }
    const Problem &problem() const { return *prob; }
    size_t rank() const { return prob->rank(); }
    size_t tensorCount() const { return prob->algo->tensorCount(); }

    /** Uniformly sample a valid mapping (paper: getMapping). */
    Mapping randomValid(Rng &rng) const;

    /** randomValid into @p out, reusing its storage. */
    void randomValid(Rng &rng, Mapping &out) const;

    /** Membership test (paper: isMember). */
    bool isMember(const Mapping &m) const;

    /**
     * Diagnostic version of isMember: empty string when valid, else a
     * description of the first violated constraint.
     */
    std::string validityError(const Mapping &m) const;

    /**
     * Deterministically repair an arbitrary mapping-shaped value into a
     * valid member (paper: getProjection). Idempotent on valid inputs
     * except for arity fixes.
     */
    Mapping project(const Mapping &m) const;

    /** project, repairing @p m where it stands. */
    void projectInPlace(Mapping &m) const;

    /** Factorization table of dimension @p d's four factor slots. */
    const FactorizationTable &
    dimTable(size_t d) const
    {
        return *tables[d];
    }

    /** Bit d set iff tensor @p t's projection uses loop dimension d. */
    uint32_t
    tensorDimMask(size_t t) const
    {
        return tensorDims[t];
    }

    /** log10 of the (upper-bound) map-space size, as in Section 5.1.3. */
    double log10Size() const;

    /** Bytes of tensor @p t's tile given per-dimension trip extents. */
    double tensorTileBytes(size_t t, std::span<const int64_t> extents) const;

    /** Bytes available to tensor @p t at on-chip level @p lvl under @p m. */
    double allocBytes(int lvl, size_t t, const Mapping &m) const;

  private:
    /** Move spatial factors into L2 until the PE budget is met. */
    void repairSpatial(Mapping &m) const;

    /** Move tile factors outward until every tensor tile fits. */
    void repairCapacity(Mapping &m) const;

    /** True iff tensor @p t's projection uses loop dimension @p d. */
    bool
    usesDim(size_t t, size_t d) const
    {
        return (tensorDimMask(t) >> d) & 1U;
    }

    const AcceleratorSpec *archSpec;
    const Problem *prob;
    /** Per-dimension factorization tables, resolved at construction. */
    std::vector<const FactorizationTable *> tables;
    /** Per-tensor dimension masks (tensorDimMask), built at construction. */
    std::vector<uint32_t> tensorDims;
};

} // namespace mm
