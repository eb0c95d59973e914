#include "typereg/registry.hh"

#include "klass/wirehint.hh"
#include "support/bytebuffer.hh"

namespace skyway
{

namespace
{

/** Hint wire form: 0–100 = saving percent, 255 = no hint cached. */
std::uint8_t
hintByte(int h)
{
    return (h >= 0 && h <= 100) ? static_cast<std::uint8_t>(h) : 255;
}

int
hintFromByte(std::uint8_t b)
{
    return b <= 100 ? static_cast<int>(b) : -1;
}

} // namespace

TypeRegistryDriver::TypeRegistryDriver(ClusterNetwork &net, NodeId node,
                                       KlassTable &klasses)
    : net_(net), node_(node), klasses_(klasses)
{
    // Algorithm 1, driver part 1: number every class already loaded in
    // the driver JVM.
    for (Klass *k : klasses_.loadedKlasses())
        k->setTid(idForClass(k->name()));

    // Classes the driver loads later get numbered on load.
    klasses_.setLoadHook(
        [](void *ctx, Klass &k) {
            auto *self = static_cast<TypeRegistryDriver *>(ctx);
            k.setTid(self->idForClass(k.name()));
        },
        this);

    // Algorithm 1, driver part 2: the daemon serving worker requests.
    net_.registerHandler(
        node_, [this](NodeId src, int tag,
                      const std::vector<std::uint8_t> &payload) {
            return handle(src, tag, payload);
        });
}

std::int32_t
TypeRegistryDriver::idForClass(const std::string &name)
{
    MutexLock lock(mutex_);
    auto it = registry_.find(name);
    if (it != registry_.end())
        return it->second;
    auto id = static_cast<std::int32_t>(names_.size());
    registry_.emplace(name, id);
    names_.push_back(name);
    klassById_.push_back(nullptr);
    return id;
}

std::string
TypeRegistryDriver::nameForId(std::int32_t id)
{
    MutexLock lock(mutex_);
    if (id < 0 || static_cast<std::size_t>(id) >= names_.size())
        panic("TypeRegistryDriver: unknown type id " +
              std::to_string(id));
    return names_[id];
}

Klass *
TypeRegistryDriver::klassForId(std::int32_t id)
{
    {
        MutexLock lock(mutex_);
        if (id >= 0 && static_cast<std::size_t>(id) < klassById_.size() &&
            klassById_[id])
            return klassById_[id];
    }
    // First resolution of this id. nameForId locks internally;
    // klasses_.load() must run unlocked (its load hook re-enters
    // idForClass).
    Klass *k = klasses_.load(nameForId(id));
    if (k->tid() == Klass::unregisteredTid)
        k->setTid(id);
    MutexLock lock(mutex_);
    klassById_[id] = k;
    return k;
}

Klass *
TypeRegistryDriver::tryKlassForId(std::int32_t id)
{
    {
        MutexLock lock(mutex_);
        if (id < 0 || static_cast<std::size_t>(id) >= names_.size())
            return nullptr;
    }
    return klassForId(id);
}

int
TypeRegistryDriver::encodingHint(std::int32_t id)
{
    {
        MutexLock lock(mutex_);
        auto it = hints_.find(id);
        if (it != hints_.end())
            return it->second;
        if (id < 0 || static_cast<std::size_t>(id) >= names_.size())
            return -1;
    }
    // Compute from the class layout: a local load plus arithmetic,
    // outside mutex_ (the load hook re-enters idForClass), never a
    // network round trip — the driver is the registry.
    Klass *k = klassForId(id);
    int h = compactSavingPercentEstimate(k, k->format());
    MutexLock lock(mutex_);
    hints_[id] = h;
    return h;
}

std::vector<std::uint8_t>
TypeRegistryDriver::encodeView() const
{
    MutexLock lock(mutex_);
    VectorSink sink;
    sink.writeVarU64(names_.size());
    for (std::size_t id = 0; id < names_.size(); ++id) {
        sink.writeString(names_[id]);
        // Hints the driver happens to have cached ride along; the
        // rest stay "unknown" (a view pull must not force-load every
        // registered class on the driver).
        auto it = hints_.find(static_cast<std::int32_t>(id));
        sink.writeU8(hintByte(it == hints_.end() ? -1 : it->second));
    }
    return sink.takeBytes();
}

std::vector<std::uint8_t>
TypeRegistryDriver::handle(NodeId, int tag,
                           const std::vector<std::uint8_t> &payload)
{
    if (tag == regmsg::requestView) {
        {
            MutexLock lock(mutex_);
            ++stats_.viewRequestsServed;
            stats_.classStringsSent += names_.size();
        }
        return encodeView();
    }
    if (tag == regmsg::lookup) {
        // Algorithm 1 lines 13-19: register-on-first-sight. The
        // handler may run twice for one request (a timed-out and
        // resent LOOKUP on the tcp transport) — registering an
        // already-registered class is a lookup, so the protocol is
        // naturally idempotent.
        {
            MutexLock lock(mutex_);
            ++stats_.lookupsServed;
        }
        ByteSource src(payload);
        std::string name = src.readString();
        std::int32_t id = idForClass(name);
        VectorSink sink;
        sink.writeI32(id);
        // The per-class encoding hint rides every LOOKUP reply, so a
        // worker that registers a class also learns its compaction
        // estimate in the same round trip.
        sink.writeU8(hintByte(encodingHint(id)));
        return sink.takeBytes();
    }
    if (tag == regmsg::lookupName) {
        ByteSource src(payload);
        std::int32_t id = src.readI32();
        // An unknown id gets an empty-name reply instead of a driver
        // panic: a worker probing a forged id from a corrupt stream
        // (the SkywaySan validator) must not crash the driver.
        std::string name;
        {
            MutexLock lock(mutex_);
            ++stats_.reverseLookupsServed;
            if (id >= 0 &&
                static_cast<std::size_t>(id) < names_.size()) {
                name = names_[id];
                ++stats_.classStringsSent;
            }
        }
        // Hint computation loads the class — outside mutex_.
        int hint = name.empty() ? -1 : encodingHint(id);
        VectorSink sink;
        sink.writeString(name);
        sink.writeU8(hintByte(hint));
        return sink.takeBytes();
    }
    panic("TypeRegistryDriver: unknown message tag " +
          std::to_string(tag));
}

TypeRegistryWorker::TypeRegistryWorker(ClusterNetwork &net, NodeId node,
                                       NodeId driver, KlassTable &klasses)
    : net_(net), node_(node), driver_(driver), klasses_(klasses)
{
    // Worker part 1: pull the full current registry in one batch —
    // most classes this worker will need are already numbered.
    std::vector<std::uint8_t> reply =
        net_.request(node_, driver_, regmsg::requestView, {});
    ByteSource src(reply);
    std::size_t n = src.readVarU64();
    for (std::size_t id = 0; id < n; ++id) {
        std::string name = src.readString();
        int hint = hintFromByte(src.readU8());
        insertView(name, static_cast<std::int32_t>(id), hint);
    }

    // Number classes this worker already loaded before attaching.
    for (Klass *k : klasses_.loadedKlasses()) {
        if (k->tid() == Klass::unregisteredTid)
            k->setTid(idForClass(k->name()));
    }

    // Worker part 2: number every future class as it loads.
    klasses_.setLoadHook(
        [](void *ctx, Klass &k) {
            auto *self = static_cast<TypeRegistryWorker *>(ctx);
            k.setTid(self->idForClass(k.name()));
        },
        this);
}

void
TypeRegistryWorker::insertView(const std::string &name, std::int32_t id,
                               int hint)
{
    MutexLock lock(mutex_);
    view_[name] = id;
    idToName_[id] = name;
    if (hint >= 0)
        hints_[id] = hint;
    if (id > maxId_)
        maxId_ = id;
}

int
TypeRegistryWorker::encodingHint(std::int32_t id)
{
    MutexLock lock(mutex_);
    auto it = hints_.find(id);
    return it == hints_.end() ? -1 : it->second;
}

RequestOptions
TypeRegistryWorker::lookupOptions() const
{
    MutexLock lock(mutex_);
    return lookupOpts_;
}

std::int32_t
TypeRegistryWorker::idForClass(const std::string &name)
{
    {
        MutexLock lock(mutex_);
        auto it = view_.find(name);
        if (it != view_.end())
            return it->second;
        // Miss: one remote LOOKUP, then cached forever. (Two sender
        // threads racing on the same cold class both ask; the driver
        // answers both with the same id.)
        ++stats_.remoteLookupsIssued;
        ++stats_.classStringsSent;
    }
    VectorSink sink;
    sink.writeString(name);
    std::vector<std::uint8_t> reply =
        net_.request(node_, driver_, regmsg::lookup, sink.takeBytes(),
                     lookupOptions());
    ByteSource src(reply);
    std::int32_t id = src.readI32();
    insertView(name, id, hintFromByte(src.readU8()));
    return id;
}

std::string
TypeRegistryWorker::nameForId(std::int32_t id)
{
    {
        MutexLock lock(mutex_);
        auto it = idToName_.find(id);
        if (it != idToName_.end())
            return it->second;
        // Stale view: the id was assigned after our snapshot.
        ++stats_.remoteLookupsIssued;
    }
    VectorSink sink;
    sink.writeI32(id);
    std::vector<std::uint8_t> reply =
        net_.request(node_, driver_, regmsg::lookupName,
                     sink.takeBytes(), lookupOptions());
    ByteSource src(reply);
    std::string name = src.readString();
    if (name.empty())
        panic("TypeRegistryWorker: unknown type id " +
              std::to_string(id));
    insertView(name, id, hintFromByte(src.readU8()));
    return name;
}

Klass *
TypeRegistryWorker::klassForId(std::int32_t id)
{
    std::string name;
    {
        MutexLock lock(mutex_);
        if (id >= 0 && static_cast<std::size_t>(id) < klassById_.size() &&
            klassById_[id])
            return klassById_[id];
        auto it = idToName_.find(id);
        if (it != idToName_.end())
            name = it->second;
    }
    // First resolution of this id.
    if (name.empty())
        name = nameForId(id);
    Klass *k = klasses_.findLoaded(name);
    if (!k) {
        // Known name, not yet loaded: instruct the class loader
        // (unlocked — the load hook re-enters idForClass).
        k = klasses_.load(name);
    }
    MutexLock lock(mutex_);
    auto idx = static_cast<std::size_t>(id);
    if (idx >= klassById_.size())
        klassById_.resize(idx + 1, nullptr);
    klassById_[idx] = k;
    return k;
}

Klass *
TypeRegistryWorker::tryKlassForId(std::int32_t id)
{
    bool known;
    {
        MutexLock lock(mutex_);
        known = idToName_.count(id) != 0;
        if (!known)
            ++stats_.remoteLookupsIssued;
    }
    if (!known) {
        // Graceful stale-view probe: an empty-name reply means no
        // registry ever assigned the id (it came from a corrupt
        // stream).
        VectorSink sink;
        sink.writeI32(id);
        std::vector<std::uint8_t> reply = net_.request(
            node_, driver_, regmsg::lookupName, sink.takeBytes(),
            lookupOptions());
        ByteSource src(reply);
        std::string name = src.readString();
        if (name.empty())
            return nullptr;
        insertView(name, id, hintFromByte(src.readU8()));
    }
    return klassForId(id);
}

} // namespace skyway
