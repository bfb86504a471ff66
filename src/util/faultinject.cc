#include "util/faultinject.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/parse.hh"
#include "util/rng.hh"

namespace vcache
{
namespace faults
{

namespace detail
{
std::atomic<bool> active{false};
} // namespace detail

namespace
{

/** Live state of one armed site. */
struct SiteState
{
    Rule rule;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
    /** Probability stream; drawn under `mtx` (cold path only). */
    Rng rng{1};
    std::mutex mtx;
};

struct Engine
{
    std::map<std::string, std::unique_ptr<SiteState>> sites;
};

/** Installed plan; replaced wholesale under g_engine_mtx. */
std::shared_ptr<const Engine> g_engine;
std::mutex g_engine_mtx;

std::shared_ptr<const Engine>
currentEngine()
{
    std::lock_guard<std::mutex> lock(g_engine_mtx);
    return g_engine;
}

/** FNV-1a, to give each site its own probability stream. */
std::uint64_t
hashSite(const std::string &site)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : site) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

/** One-shot VCACHE_FAULTS pickup, so any binary can inject faults. */
struct EnvInit
{
    EnvInit()
    {
        const char *spec = std::getenv("VCACHE_FAULTS");
        if (!spec || !*spec)
            return;
        auto plan = parseFaultSpec(spec, 1);
        if (!plan.ok()) {
            // Too early for the logging config; stderr directly.
            std::fprintf(stderr,
                         "warn: ignoring VCACHE_FAULTS: %s\n",
                         plan.error().describe().c_str());
            return;
        }
        configureFaults(plan.value());
    }
};
const EnvInit g_env_init;

} // namespace

Expected<FaultPlan>
parseFaultSpec(const std::string &spec, std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;

    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string rule_text = spec.substr(pos, end - pos);
        pos = end + 1;
        if (rule_text.empty())
            continue;

        const auto eq = rule_text.find('=');
        if (eq == std::string::npos || eq == 0)
            return makeError(Errc::InvalidConfig,
                             "fault rule '" + rule_text +
                                 "' is not site=action@trigger");
        const std::string site = rule_text.substr(0, eq);
        const std::string rest = rule_text.substr(eq + 1);
        const auto at = rest.find('@');
        if (at == std::string::npos)
            return makeError(Errc::InvalidConfig,
                             "fault rule for '" + site +
                                 "' is missing an @trigger");
        const std::string action = rest.substr(0, at);
        const std::string trigger = rest.substr(at + 1);

        Rule rule;
        if (action == "throw") {
            rule.action = Action::Throw;
        } else if (action == "corrupt") {
            rule.action = Action::Corrupt;
        } else if (action.rfind("stall:", 0) == 0) {
            rule.action = Action::Stall;
            const std::string ms = action.substr(6);
            if (parseWhole(ms, rule.stallMillis) != ParseStatus::Ok)
                return makeError(Errc::InvalidConfig,
                                 "bad stall duration '" + ms +
                                     "' in fault rule for '" + site +
                                     "'");
        } else {
            return makeError(Errc::InvalidConfig,
                             "unknown fault action '" + action +
                                 "' (expected throw, stall:<ms> or "
                                 "corrupt)");
        }

        if (trigger.rfind("every:", 0) == 0) {
            const std::string n = trigger.substr(6);
            if (parseWhole(n, rule.every) != ParseStatus::Ok ||
                rule.every == 0)
                return makeError(Errc::InvalidConfig,
                                 "bad every:<N> trigger '" + trigger +
                                     "' in fault rule for '" + site +
                                     "'");
        } else if (trigger.rfind("prob:", 0) == 0) {
            const std::string p = trigger.substr(5);
            char *parse_end = nullptr;
            rule.probability = std::strtod(p.c_str(), &parse_end);
            if (p.empty() || *parse_end != '\0' ||
                rule.probability < 0.0 || rule.probability > 1.0)
                return makeError(Errc::InvalidConfig,
                                 "bad prob:<P> trigger '" + trigger +
                                     "' in fault rule for '" + site +
                                     "' (need 0 <= P <= 1)");
        } else {
            return makeError(Errc::InvalidConfig,
                             "unknown fault trigger '" + trigger +
                                 "' (expected every:<N> or prob:<P>)");
        }

        if (plan.rules.count(site))
            return makeError(Errc::InvalidConfig,
                             "duplicate fault rule for site '" + site +
                                 "'");
        plan.rules[site] = rule;
    }
    return plan;
}

void
configureFaults(const FaultPlan &plan)
{
    auto engine = std::make_shared<Engine>();
    for (const auto &[site, rule] : plan.rules) {
        auto state = std::make_unique<SiteState>();
        state->rule = rule;
        state->rng.seed(plan.seed ^ hashSite(site));
        engine->sites[site] = std::move(state);
    }
    {
        std::lock_guard<std::mutex> lock(g_engine_mtx);
        g_engine = std::move(engine);
    }
    detail::active.store(!plan.rules.empty(),
                         std::memory_order_relaxed);
}

void
clearFaults()
{
    detail::active.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(g_engine_mtx);
    g_engine.reset();
}

bool
faultsConfigured()
{
    return detail::active.load(std::memory_order_relaxed);
}

std::uint64_t
faultSiteHits(const std::string &site)
{
    const auto engine = currentEngine();
    if (!engine)
        return 0;
    const auto it = engine->sites.find(site);
    return it == engine->sites.end()
               ? 0
               : it->second->hits.load(std::memory_order_relaxed);
}

std::uint64_t
faultSiteFires(const std::string &site)
{
    const auto engine = currentEngine();
    if (!engine)
        return 0;
    const auto it = engine->sites.find(site);
    return it == engine->sites.end()
               ? 0
               : it->second->fires.load(std::memory_order_relaxed);
}

Fire
pollSite(const char *site)
{
    const auto engine = currentEngine();
    if (!engine)
        return Fire::None;
    const auto it = engine->sites.find(site);
    if (it == engine->sites.end())
        return Fire::None;
    SiteState &state = *it->second;

    const std::uint64_t hit =
        state.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    bool fire = false;
    if (state.rule.every != 0) {
        fire = hit % state.rule.every == 0;
    } else if (state.rule.probability >= 0.0) {
        std::lock_guard<std::mutex> lock(state.mtx);
        fire = state.rng.bernoulli(state.rule.probability);
    }
    if (!fire)
        return Fire::None;

    state.fires.fetch_add(1, std::memory_order_relaxed);
    switch (state.rule.action) {
      case Action::Throw:
        return Fire::Throw;
      case Action::Corrupt:
        return Fire::Corrupt;
      case Action::Stall:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(state.rule.stallMillis));
        return Fire::None;
    }
    return Fire::None;
}

void
throwInjected(const char *site)
{
    throw VcError(makeError(Errc::Io, std::string("injected fault at "
                                                  "site '") +
                                          site + "'"));
}

} // namespace faults
} // namespace vcache
