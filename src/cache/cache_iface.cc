#include "cache/cache_iface.hh"

// Interface out-of-line anchor (vtable) lives here.

#include "sim/snapshot.hh"

namespace wlcache {
namespace cache {

void
DataCache::ioState(StateIo &io)
{
    io.section("DC  ");
    stat_group_.ioState(io);
}

} // namespace cache
} // namespace wlcache
