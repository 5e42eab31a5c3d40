// Shard-parallel analytics over ShardedStore (extension): the paper's
// Fig. 6 interval decomposition applied to the engine's scatter phase.
// DynamicAnalysis recognises a sharded store and scatters each shard on its
// own worker (see hybrid_engine.hpp); this name stays for its callers.
#pragma once

#include "core/sharded.hpp"
#include "engine/hybrid_engine.hpp"

namespace gt::engine {

template <typename Store, typename Alg>
using ParallelDynamicAnalysis = DynamicAnalysis<core::ShardedStore<Store>, Alg>;

}  // namespace gt::engine
