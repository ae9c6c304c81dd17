/**
 * @file
 * Search-agnostic move operators over the map space.
 *
 * These implement the neighborhoods the black-box baselines need:
 * simulated annealing perturbs one attribute per step, the genetic
 * algorithm recombines attribute groups between parents and mutates
 * individual attributes (Appendix A). All operators return *valid*
 * mappings (they finish with MapSpace::projectInPlace). Each has an
 * out-parameter form that writes into a caller-owned Mapping and reuses
 * its storage, so a search loop that keeps its candidates allocates
 * nothing per step; the value forms wrap it.
 */
#pragma once

#include "common/rng.hpp"
#include "mapping/map_space.hpp"

namespace mm {

/** The four programmable-attribute groups of Section 5.1.3. */
enum class AttributeGroup : int
{
    Tiling = 0,
    Spatial = 1,
    LoopOrder = 2,
    BufferAlloc = 3,
};

/**
 * One local move: perturb a single randomly-chosen attribute of @p m
 * (resample one dimension's factor tuple, nudge one spatial factor,
 * swap two loop positions, or shift one bank), then project.
 */
Mapping randomNeighbor(const MapSpace &space, const Mapping &m, Rng &rng);

/** randomNeighbor into @p out (which may alias @p m). */
void randomNeighbor(const MapSpace &space, const Mapping &m, Rng &rng,
                    Mapping &out);

/**
 * GA crossover: for each attribute group element, inherit from either
 * parent uniformly at random, then project.
 */
Mapping crossover(const MapSpace &space, const Mapping &a, const Mapping &b,
                  Rng &rng);

/** crossover into @p out (which may alias @p a but not @p b). */
void crossover(const MapSpace &space, const Mapping &a, const Mapping &b,
               Rng &rng, Mapping &out);

/**
 * GA mutation: each attribute is independently re-randomized with
 * probability @p perAttrProb, then the result is projected.
 */
Mapping mutate(const MapSpace &space, const Mapping &m, double perAttrProb,
               Rng &rng);

/** mutate into @p out (which may alias @p m). */
void mutate(const MapSpace &space, const Mapping &m, double perAttrProb,
            Rng &rng, Mapping &out);

} // namespace mm
