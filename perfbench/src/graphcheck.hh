/**
 * @file
 * The benchmark's own check that a received object graph equals the
 * one that was sent: a field-by-field walk over both heaps that
 * matches classes by name, primitive fields and array elements by
 * value, the sharing structure of references, and the identity hash
 * cached in each mark word. It reads the heaps through their public
 * accessors only, apart from the program's transfer code.
 */

#ifndef SKYBENCH_GRAPHCHECK_HH
#define SKYBENCH_GRAPHCHECK_HH

#include <string>

#include "heap/heap.hh"

namespace skybench
{

/**
 * True when the graph at @p b in @p hb is a faithful copy of the graph
 * at @p a in @p ha. On a mismatch @p why names the first difference.
 */
bool sameGraph(const skyway::ManagedHeap &ha, skyway::Address a,
               const skyway::ManagedHeap &hb, skyway::Address b,
               std::string &why);

/** Cache an identity hash in every object reachable from @p root. */
void hashWholeGraph(skyway::ManagedHeap &h, skyway::Address root);

} // namespace skybench

#endif // SKYBENCH_GRAPHCHECK_HH
