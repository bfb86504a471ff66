#include "serve/proto.hh"

#include <cstdio>

#include "util/buildinfo.hh"
#include "util/json.hh"

namespace vcache::serve
{

namespace
{

Error
malformed(const std::string &what)
{
    return makeError(Errc::InvalidConfig,
                     "malformed request: " + what);
}

Expected<std::uint64_t>
asUint(const std::string &key, const json::Value &v)
{
    if (const auto n = v.asUint())
        return *n;
    return malformed("\"" + key + "\" must be a non-negative integer");
}

Expected<double>
asDouble(const std::string &key, const json::Value &v)
{
    if (const auto d = v.asDouble())
        return *d;
    return malformed("\"" + key + "\" must be a number");
}

Expected<bool>
asBool(const std::string &key, const json::Value &v)
{
    if (const auto b = v.asBool())
        return *b;
    return malformed("\"" + key + "\" must be true or false");
}

Expected<std::string>
asString(const std::string &key, const json::Value &v)
{
    if (auto text = v.asString())
        return std::move(*text);
    return malformed("\"" + key + "\" must be a string");
}

} // namespace

Expected<Request>
parseRequest(const std::string &line)
{
    auto fields = json::parseObject(line);
    if (!fields.ok())
        return malformed(fields.error().message);
    // Arrays are a journal feature; no request key takes one.
    for (const auto &[key, value] : fields.value())
        if (value.kind == json::Value::Kind::StringArray)
            return malformed("bad value for key \"" + key + "\"");

    Request req;
    auto &map = fields.value();

    const auto op = map.find("op");
    if (op == map.end())
        return malformed("missing \"op\"");
    auto op_name = asString("op", op->second);
    if (!op_name.ok())
        return op_name.error();
    map.erase(op);

    if (const auto id = map.find("id"); id != map.end()) {
        auto text = asString("id", id->second);
        if (!text.ok())
            return text.error();
        req.id = std::move(text.value());
        map.erase(id);
    }

    if (op_name.value() == "hello") {
        req.verb = Verb::Hello;
    } else if (op_name.value() == "stats") {
        req.verb = Verb::Stats;
    } else if (op_name.value() == "metrics") {
        req.verb = Verb::Metrics;
    } else if (op_name.value() == "shutdown") {
        req.verb = Verb::Shutdown;
    } else if (op_name.value() == "eval") {
        req.verb = Verb::Eval;
        for (auto &[key, value] : map) {
            if (key == "m") {
                auto v = asUint(key, value);
                if (!v.ok())
                    return v.error();
                if (v.value() > 64)
                    return malformed("\"m\" is implausibly large");
                req.eval.bankBits =
                    static_cast<unsigned>(v.value());
            } else if (key == "tm") {
                auto v = asUint(key, value);
                if (!v.ok())
                    return v.error();
                req.eval.memoryTime = v.value();
            } else if (key == "B") {
                auto v = asUint(key, value);
                if (!v.ok())
                    return v.error();
                req.eval.blockingFactor = v.value();
            } else if (key == "pds") {
                auto v = asDouble(key, value);
                if (!v.ok())
                    return v.error();
                req.eval.pDoubleStream = v.value();
            } else if (key == "seed") {
                auto v = asUint(key, value);
                if (!v.ok())
                    return v.error();
                req.eval.seed = v.value();
            } else if (key == "sim") {
                auto v = asBool(key, value);
                if (!v.ok())
                    return v.error();
                req.eval.sim = v.value();
            } else if (key == "engine") {
                auto v = asString(key, value);
                if (!v.ok())
                    return v.error();
                const auto engine = parseSimEngine(v.value());
                if (!engine)
                    return malformed(
                        "\"engine\" must be auto, scalar or "
                        "sampled");
                req.eval.engine = *engine;
            } else if (key == "ci") {
                auto v = asDouble(key, value);
                if (!v.ok())
                    return v.error();
                req.eval.targetCi = v.value();
            } else if (key == "deadline_ms") {
                auto v = asUint(key, value);
                if (!v.ok())
                    return v.error();
                req.deadlineMs = v.value();
            } else {
                return malformed("unknown key \"" + key + "\"");
            }
        }
        return req;
    } else {
        return malformed("unknown op \"" + op_name.value() + "\"");
    }

    // Non-eval verbs accept no further keys.
    if (!map.empty())
        return malformed("unknown key \"" + map.begin()->first +
                         "\" for op \"" + op_name.value() + "\"");
    return req;
}

std::string
formatKey(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

std::string
renderResultPayload(const EvalRequest &req, const EvalResult &result)
{
    std::string out = "{\"model\":{\"mm\":";
    out += canonicalDouble(result.modelMm);
    out += ",\"direct\":" + canonicalDouble(result.modelDirect);
    out += ",\"prime\":" + canonicalDouble(result.modelPrime);
    out += "}";
    if (req.sim) {
        out += ",\"sim\":{\"mm\":" + canonicalDouble(result.simMm);
        out += ",\"direct\":" + canonicalDouble(result.simDirect);
        out += ",\"prime\":" + canonicalDouble(result.simPrime);
        out += "}";
        if (req.engine == SimEngine::Sampled) {
            out += ",\"ci\":{\"mm\":" + canonicalDouble(result.mmCi);
            out += ",\"direct\":" + canonicalDouble(result.directCi);
            out += ",\"prime\":" + canonicalDouble(result.primeCi);
            out += "}";
        } else {
            // Full counters only exist for the exact engines.
            auto machine = [](const SimResult &r, bool cache) {
                std::string m =
                    "{\"cycles\":" + std::to_string(r.totalCycles);
                m += ",\"stalls\":" + std::to_string(r.stallCycles);
                m += ",\"results\":" + std::to_string(r.results);
                if (cache) {
                    m += ",\"hits\":" + std::to_string(r.hits);
                    m += ",\"misses\":" + std::to_string(r.misses);
                }
                return m + "}";
            };
            out += ",\"counters\":{\"mm\":" +
                   machine(result.mm, false);
            out += ",\"direct\":" + machine(result.direct, true);
            out += ",\"prime\":" + machine(result.prime, true);
            out += "}";
        }
    }
    return out + "}";
}

namespace
{

/** Shared "ok/id" response prefix. */
std::string
envelope(bool ok, const std::string &id)
{
    std::string out = ok ? "{\"ok\":true" : "{\"ok\":false";
    if (!id.empty())
        out += ",\"id\":\"" + json::escape(id) + "\"";
    return out;
}

} // namespace

std::string
renderEvalOk(const std::string &id, std::uint64_t key,
             const std::string &payload, bool cached, bool coalesced)
{
    std::string out = envelope(true, id);
    out += cached ? ",\"cached\":true" : ",\"cached\":false";
    out += coalesced ? ",\"coalesced\":true" : ",\"coalesced\":false";
    out += ",\"key\":\"" + formatKey(key) + "\"";
    out += ",\"result\":" + payload;
    return out + "}";
}

std::string
renderError(const std::string &id, const Error &err)
{
    std::string out = envelope(false, id);
    out += ",\"error\":\"";
    out += errcName(err.code);
    out += "\",\"message\":\"" + json::escape(err.message) + "\"";
    return out + "}";
}

std::string
renderOverloaded(const std::string &id, std::uint64_t retryAfterMs)
{
    std::string out = envelope(false, id);
    out += ",\"error\":\"Overloaded\",\"message\":\"admission queue "
           "is full; retry later\",\"retry_after_ms\":";
    out += std::to_string(retryAfterMs);
    return out + "}";
}

std::string
renderHello()
{
    std::string out = "{\"ok\":true,\"op\":\"hello\",\"proto\":";
    out += std::to_string(kProtoVersion);
    out += ",\"build\":\"" + json::escape(buildInfoString()) + "\"";
    out += ",\"identity\":\"" + json::escape(buildResultIdentity()) +
           "\"";
    return out + "}";
}

std::string
renderStats(const std::map<std::string, std::uint64_t> &counters)
{
    std::string out = "{\"ok\":true,\"op\":\"stats\",\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + json::escape(name) +
               "\":" + std::to_string(value);
    }
    return out + "}}";
}

std::string
renderPrometheusText(
    const std::map<std::string, std::uint64_t> &counters)
{
    std::string out;
    for (const auto &[name, value] : counters) {
        std::string metric = "vcache_";
        for (const char c : name)
            metric.push_back(c == '.' ? '_' : c);
        out += "# TYPE " + metric + " counter\n";
        out += metric + " " + std::to_string(value) + "\n";
    }
    return out;
}

std::string
renderMetrics(const std::map<std::string, std::uint64_t> &counters)
{
    std::string out = "{\"ok\":true,\"op\":\"metrics\","
                      "\"format\":\"prometheus\",\"text\":\"";
    out += json::escape(renderPrometheusText(counters));
    return out + "\"}";
}

std::string
renderShutdownAck()
{
    return "{\"ok\":true,\"op\":\"shutdown\",\"draining\":true}";
}

} // namespace vcache::serve
