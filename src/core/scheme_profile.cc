#include "src/core/scheme_profile.hh"

#include <sstream>

#include "src/util/log.hh"

namespace piso {

SchemeProfile
SchemeProfile::uniform(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Smp:
        return {CpuPolicy::Smp, MemoryPolicy::Smp,
                DiskPolicy::HeadPosition, NetPolicy::Smp};
      case Scheme::Quota:
        return {CpuPolicy::Quota, MemoryPolicy::Quota,
                DiskPolicy::BlindFair, NetPolicy::Quota};
      case Scheme::PIso:
        return {CpuPolicy::PIso, MemoryPolicy::PIso,
                DiskPolicy::FairPosition, NetPolicy::PIso};
    }
    PISO_PANIC("unknown scheme ", static_cast<int>(scheme));
}

std::optional<Scheme>
SchemeProfile::asUniform() const
{
    for (Scheme s : {Scheme::Smp, Scheme::Quota, Scheme::PIso}) {
        if (*this == uniform(s))
            return s;
    }
    return std::nullopt;
}

std::string
SchemeProfile::str() const
{
    std::ostringstream os;
    os << "cpu=" << policyName(cpu) << " memory=" << policyName(memory)
       << " disk_policy=" << policySpecName(disk)
       << " network=" << policyName(net);
    return os.str();
}

const PolicyRegistry &
PolicyRegistry::instance()
{
    static const PolicyRegistry registry;
    return registry;
}

PolicyRegistry::PolicyRegistry()
{
    const auto cpu = [](CpuPolicy p) { return static_cast<int>(p); };
    add(PolicyResource::Cpu, "smp", cpu(CpuPolicy::Smp), true);
    add(PolicyResource::Cpu, "quota", cpu(CpuPolicy::Quota), true);
    add(PolicyResource::Cpu, "quo", cpu(CpuPolicy::Quota), false);
    add(PolicyResource::Cpu, "piso", cpu(CpuPolicy::PIso), true);

    const auto mem = [](MemoryPolicy p) { return static_cast<int>(p); };
    add(PolicyResource::Memory, "smp", mem(MemoryPolicy::Smp), true);
    add(PolicyResource::Memory, "quota", mem(MemoryPolicy::Quota), true);
    add(PolicyResource::Memory, "quo", mem(MemoryPolicy::Quota), false);
    add(PolicyResource::Memory, "piso", mem(MemoryPolicy::PIso), true);

    // Disk keeps the §4.5 names as canonical and accepts the generic
    // smp/quota spellings as aliases, so `scheme=`-style uniformity
    // ("everything quota") can be written per-resource too.
    const auto disk = [](DiskPolicy p) { return static_cast<int>(p); };
    add(PolicyResource::Disk, "pos", disk(DiskPolicy::HeadPosition),
        true);
    add(PolicyResource::Disk, "iso", disk(DiskPolicy::BlindFair), true);
    add(PolicyResource::Disk, "piso", disk(DiskPolicy::FairPosition),
        true);
    add(PolicyResource::Disk, "smp", disk(DiskPolicy::HeadPosition),
        false);
    add(PolicyResource::Disk, "quota", disk(DiskPolicy::BlindFair),
        false);
    add(PolicyResource::Disk, "quo", disk(DiskPolicy::BlindFair),
        false);

    const auto net = [](NetPolicy p) { return static_cast<int>(p); };
    add(PolicyResource::Net, "smp", net(NetPolicy::Smp), true);
    add(PolicyResource::Net, "quota", net(NetPolicy::Quota), true);
    add(PolicyResource::Net, "quo", net(NetPolicy::Quota), false);
    add(PolicyResource::Net, "piso", net(NetPolicy::PIso), true);
    add(PolicyResource::Net, "fifo", net(NetPolicy::Smp), false);
}

void
PolicyRegistry::add(PolicyResource resource, const std::string &name,
                    int value, bool canonical)
{
    for (const Binding &b : bindings_) {
        if (b.resource == resource && b.name == name)
            PISO_PANIC("policy name '", name, "' registered twice");
    }
    bindings_.push_back(Binding{resource, name, value, canonical});
}

std::optional<int>
PolicyRegistry::tryParse(PolicyResource resource,
                         std::string_view name) const
{
    for (const Binding &b : bindings_) {
        if (b.resource == resource && b.name == name)
            return b.value;
    }
    return std::nullopt;
}

const char *
PolicyRegistry::canonicalName(PolicyResource resource, int value) const
{
    for (const Binding &b : bindings_) {
        if (b.resource == resource && b.value == value && b.canonical)
            return b.name.c_str();
    }
    return "?";
}

std::vector<std::string>
PolicyRegistry::names(PolicyResource resource) const
{
    std::vector<std::string> out;
    for (const Binding &b : bindings_) {
        if (b.resource == resource)
            out.push_back(b.name);
    }
    return out;
}

namespace {

std::string
joinNames(PolicyResource resource)
{
    std::string out;
    for (const std::string &n : PolicyRegistry::instance().names(resource)) {
        if (!out.empty())
            out += '|';
        out += n;
    }
    return out;
}

const char *
resourceLabel(PolicyResource resource)
{
    switch (resource) {
      case PolicyResource::Cpu:
        return "cpu";
      case PolicyResource::Memory:
        return "memory";
      case PolicyResource::Disk:
        return "disk";
      case PolicyResource::Net:
        return "network";
    }
    return "?";
}

[[noreturn]] void
unknownName(const Where &where, const std::string &what,
            std::string_view name, const std::string &valid)
{
    PISO_FATAL(where, "unknown ", what, " '", name, "' (", valid, ")");
}

int
parsePolicy(PolicyResource resource, std::string_view name,
            const Where &where)
{
    const auto v = PolicyRegistry::instance().tryParse(resource, name);
    if (!v) {
        unknownName(where, std::string(resourceLabel(resource)) + " policy",
                    name, joinNames(resource));
    }
    return *v;
}

} // namespace

const char *
policyName(CpuPolicy p)
{
    return PolicyRegistry::instance().canonicalName(
        PolicyResource::Cpu, static_cast<int>(p));
}

const char *
policyName(MemoryPolicy p)
{
    return PolicyRegistry::instance().canonicalName(
        PolicyResource::Memory, static_cast<int>(p));
}

const char *
policyName(NetPolicy p)
{
    return PolicyRegistry::instance().canonicalName(
        PolicyResource::Net, static_cast<int>(p));
}

const char *
policySpecName(DiskPolicy p)
{
    return PolicyRegistry::instance().canonicalName(
        PolicyResource::Disk, static_cast<int>(p));
}

Scheme
parseScheme(std::string_view name, const Where &where)
{
    if (name == "smp")
        return Scheme::Smp;
    if (name == "quota" || name == "quo")
        return Scheme::Quota;
    if (name == "piso")
        return Scheme::PIso;
    unknownName(where, "scheme", name, "smp|quota|piso");
}

CpuPolicy
parseCpuPolicy(std::string_view name, const Where &where)
{
    return static_cast<CpuPolicy>(
        parsePolicy(PolicyResource::Cpu, name, where));
}

MemoryPolicy
parseMemoryPolicy(std::string_view name, const Where &where)
{
    return static_cast<MemoryPolicy>(
        parsePolicy(PolicyResource::Memory, name, where));
}

DiskPolicy
parseDiskPolicy(std::string_view name, const Where &where)
{
    return static_cast<DiskPolicy>(
        parsePolicy(PolicyResource::Disk, name, where));
}

NetPolicy
parseNetPolicy(std::string_view name, const Where &where)
{
    return static_cast<NetPolicy>(
        parsePolicy(PolicyResource::Net, name, where));
}

std::optional<DiskPolicy>
parseDiskOverride(std::string_view name, const Where &where)
{
    if (name == kSchemeDiskPolicy)
        return std::nullopt;
    const auto v =
        PolicyRegistry::instance().tryParse(PolicyResource::Disk, name);
    if (!v) {
        unknownName(where, "disk policy", name,
                    joinNames(PolicyResource::Disk) + '|' +
                        kSchemeDiskPolicy);
    }
    return static_cast<DiskPolicy>(*v);
}

} // namespace piso
