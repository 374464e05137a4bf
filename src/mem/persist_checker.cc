#include "mem/persist_checker.hh"

#include <algorithm>
#include <cstdio>

#include "mem/nvm_memory.hh"
#include "sim/logging.hh"
#include "sim/snapshot.hh"

namespace wlcache {
namespace mem {

void
PersistChecker::applyStore(Addr addr, unsigned bytes, std::uint64_t value)
{
    wlc_assert(bytes <= 8);
    for (unsigned i = 0; i < bytes; ++i)
        shadow_[addr + i] =
            static_cast<std::uint8_t>((value >> (8 * i)) & 0xff);
}

void
PersistChecker::applyInit(Addr addr, const std::uint8_t *data,
                          unsigned bytes)
{
    wlc_assert(data != nullptr);
    for (unsigned i = 0; i < bytes; ++i)
        shadow_[addr + i] = data[i];
}

std::vector<PersistMismatch>
PersistChecker::compare(const NvmMemory &nvm,
                        std::size_t max_mismatches) const
{
    std::vector<PersistMismatch> out;
    for (const auto &[addr, expected] : shadow_) {
        std::uint8_t actual = 0;
        nvm.peek(addr, 1, &actual);
        if (actual != expected) {
            out.push_back({ addr, expected, actual });
            if (out.size() >= max_mismatches)
                break;
        }
    }
    return out;
}

StateDiff
PersistChecker::diffState(
    const NvmMemory &nvm,
    const std::unordered_map<Addr, std::uint8_t> &overlay,
    const std::function<bool(Addr)> &skip,
    std::size_t max_mismatches) const
{
    StateDiff diff;
    for (const auto &[addr, expected] : shadow_) {
        if (skip && skip(addr))
            continue;
        std::uint8_t actual = 0;
        const auto it = overlay.find(addr);
        if (it != overlay.end())
            actual = it->second;
        else
            nvm.peek(addr, 1, &actual);
        if (actual != expected) {
            ++diff.total_mismatched_bytes;
            diff.mismatches.push_back({ addr, expected, actual });
        }
    }
    std::sort(diff.mismatches.begin(), diff.mismatches.end(),
              [](const PersistMismatch &a, const PersistMismatch &b) {
                  return a.addr < b.addr;
              });
    if (diff.mismatches.size() > max_mismatches)
        diff.mismatches.resize(max_mismatches);
    return diff;
}

std::uint8_t
PersistChecker::expectedByte(Addr addr) const
{
    auto it = shadow_.find(addr);
    wlc_assert(it != shadow_.end(), "byte 0x%llx untracked",
               static_cast<unsigned long long>(addr));
    return it->second;
}

bool
PersistChecker::isTracked(Addr addr) const
{
    return shadow_.find(addr) != shadow_.end();
}

void
PersistChecker::reset()
{
    shadow_.clear();
}

std::string
PersistChecker::describe(const std::vector<PersistMismatch> &ms)
{
    if (ms.empty())
        return "consistent";
    std::string out =
        std::to_string(ms.size()) + "+ mismatching bytes:";
    for (const auto &m : ms) {
        char buf[80];
        std::snprintf(buf, sizeof(buf),
                      " [0x%llx exp=%02x got=%02x]",
                      static_cast<unsigned long long>(m.addr),
                      m.expected, m.actual);
        out += buf;
    }
    return out;
}

void
PersistChecker::ioState(StateIo &io)
{
    io.section("CHK ");
    io.sorted(shadow_, [&io](Addr &addr, std::uint8_t &expected) {
        io.u64(addr);
        io.u8(expected);
    });
}

} // namespace mem
} // namespace wlcache
