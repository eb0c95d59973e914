#include "graphcheck.hh"

#include <cstring>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "heap/objectops.hh"

using namespace skyway;

namespace skybench
{

namespace
{

/** Reference slots of @p obj, as byte offsets. */
std::vector<std::size_t>
refSlots(const ManagedHeap &h, Address obj)
{
    std::vector<std::size_t> slots;
    forEachRefSlot(h, obj, [&](std::size_t off) { slots.push_back(off); });
    return slots;
}

/** The bytes of @p obj that are not header and not references. */
bool
samePrimitives(const ManagedHeap &ha, Address a, const ManagedHeap &hb,
               Address b, std::string &why)
{
    const Klass *ka = ha.klassOf(a);
    const Klass *kb = hb.klassOf(b);
    if (ka->isArray()) {
        std::int64_t n = ha.arrayLength(a);
        if (n != hb.arrayLength(b)) {
            why = ka->name() + ": array length differs";
            return false;
        }
        if (ka->elemType() == FieldType::Ref)
            return true;
        std::size_t bytes = static_cast<std::size_t>(n) * ka->elemSize();
        if (std::memcmp(reinterpret_cast<const void *>(
                            a + ha.arrayElemOffset(ka, 0)),
                        reinterpret_cast<const void *>(
                            b + hb.arrayElemOffset(kb, 0)),
                        bytes) != 0) {
            why = ka->name() + ": array elements differ";
            return false;
        }
        return true;
    }
    for (const FieldDesc &fa : ka->fields()) {
        if (fa.type == FieldType::Ref)
            continue;
        const FieldDesc *fb = kb->findField(fa.name);
        if (!fb || fb->type != fa.type) {
            why = ka->name() + "." + fa.name + ": field missing";
            return false;
        }
        if (std::memcmp(reinterpret_cast<const void *>(a + fa.offset),
                        reinterpret_cast<const void *>(b + fb->offset),
                        fieldSize(fa.type)) != 0) {
            why = ka->name() + "." + fa.name + ": value differs";
            return false;
        }
    }
    return true;
}

} // namespace

bool
sameGraph(const ManagedHeap &ha, Address a, const ManagedHeap &hb,
          Address b, std::string &why)
{
    std::unordered_map<Address, Address> seen;
    std::deque<std::pair<Address, Address>> work{{a, b}};
    while (!work.empty()) {
        auto [x, y] = work.front();
        work.pop_front();
        if ((x == nullAddr) != (y == nullAddr)) {
            why = "null reference differs";
            return false;
        }
        if (x == nullAddr)
            continue;
        auto [it, fresh] = seen.emplace(x, y);
        if (!fresh) {
            if (it->second != y) {
                why = "shared reference not shared in the copy";
                return false;
            }
            continue;
        }
        const Klass *kx = ha.klassOf(x);
        if (kx->name() != hb.klassOf(y)->name()) {
            why = "class " + kx->name() + " arrived as " +
                  hb.klassOf(y)->name();
            return false;
        }
        Word mx = ha.markOf(x), my = hb.markOf(y);
        if (mark::hasHash(mx) != mark::hasHash(my) ||
            mark::hashOf(mx) != mark::hashOf(my)) {
            why = kx->name() + ": identity hash not kept";
            return false;
        }
        if (!samePrimitives(ha, x, hb, y, why))
            return false;
        std::vector<std::size_t> sx = refSlots(ha, x);
        std::vector<std::size_t> sy = refSlots(hb, y);
        if (sx.size() != sy.size()) {
            why = kx->name() + ": reference slot count differs";
            return false;
        }
        for (std::size_t i = 0; i < sx.size(); ++i)
            work.emplace_back(ha.loadRef(x, sx[i]), hb.loadRef(y, sy[i]));
    }
    return true;
}

void
hashWholeGraph(ManagedHeap &h, Address root)
{
    std::unordered_set<Address> seen;
    std::vector<Address> work{root};
    while (!work.empty()) {
        Address x = work.back();
        work.pop_back();
        if (x == nullAddr || !seen.insert(x).second)
            continue;
        h.identityHash(x);
        for (std::size_t off : refSlots(h, x))
            work.push_back(h.loadRef(x, off));
    }
}

} // namespace skybench
