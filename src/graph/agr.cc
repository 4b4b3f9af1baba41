/**
 * @file
 * `.agr` printer and parser.
 */

#include "graph/agr.hh"

#include <climits>
#include <sstream>
#include <unordered_map>

#include "common/field.hh"
#include "runtime/perf_stats.hh"

namespace ascend {
namespace graph {

namespace {

/**
 * Every keyed layer field that differs from its default, as
 * " key=value" (kind is the op token).
 */
std::string
layerKeys(const model::Layer &l)
{
    const model::Layer defaults;
    std::string s;
    model::forEachField(
        [&s](const char *key, const auto &v, const auto &dflt) {
            if (v == dflt)
                return;
            s += ' ';
            s += key;
            s += '=';
            s += fieldText(v);
        },
        l, defaults);
    return s;
}

struct ParseCursor
{
    const std::string &text;
    std::size_t pos = 0;
    unsigned lineNo = 0;
};

[[noreturn]] void
parseFail(unsigned line_no, const char *what)
{
    throwError(ErrorCode::ConfigParse, "agr line %u: %s", line_no,
               what);
}

/** Next non-empty, non-comment line split into tokens. */
bool
nextLine(ParseCursor &cur, std::vector<std::string> &tokens)
{
    while (cur.pos < cur.text.size()) {
        const std::size_t eol = cur.text.find('\n', cur.pos);
        const std::size_t end =
            eol == std::string::npos ? cur.text.size() : eol;
        std::string line = cur.text.substr(cur.pos, end - cur.pos);
        cur.pos = end + 1;
        ++cur.lineNo;
        tokens.clear();
        std::istringstream ss(line);
        std::string tok;
        while (ss >> tok)
            tokens.push_back(tok);
        if (tokens.empty() || tokens[0][0] == '#')
            continue;
        return true;
    }
    return false;
}

/** @p tok as a T (see parseFieldText), or a ConfigParse error. */
template <typename T>
T
parseToken(const std::string &tok, unsigned line_no)
{
    T v{};
    if (!parseFieldText(tok, v))
        throwError(ErrorCode::ConfigParse, "agr line %u: bad %s '%s'",
                   line_no, fieldTypeName<T>(), tok.c_str());
    return v;
}

/** Split "a,b,c" on commas (no empty fields allowed). */
std::vector<std::string>
splitList(const std::string &tok, unsigned line_no)
{
    std::vector<std::string> out;
    std::size_t at = 0;
    while (at <= tok.size()) {
        const std::size_t comma = tok.find(',', at);
        const std::size_t end =
            comma == std::string::npos ? tok.size() : comma;
        if (end == at)
            parseFail(line_no, "empty entry in a tensor list");
        out.push_back(tok.substr(at, end - at));
        if (comma == std::string::npos)
            break;
        at = comma + 1;
    }
    return out;
}

} // anonymous namespace

std::string
printAgr(const Graph &g)
{
    std::string out = "agr 1\n";
    out += "graph " + g.name + "\n";
    for (const Tensor &t : g.tensors) {
        out += "tensor " + t.name + ' ' + std::to_string(t.elems) +
               ' ' + toString(t.dtype);
        if (t.producer < 0)
            out += " input";
        else
            out += " from " + std::to_string(t.producer) + '.' +
                   std::to_string(t.producerSlot);
        out += '\n';
    }
    for (const Node &n : g.nodes) {
        out += "node " + n.name + ' ';
        if (n.op == OpKind::Layer) {
            out += "layer ";
            out += toString(n.layer.kind);
        } else {
            out += toString(n.op);
        }
        out += " in ";
        for (std::size_t i = 0; i < n.inputs.size(); ++i) {
            if (i)
                out += ',';
            out += g.tensors[n.inputs[i]].name;
        }
        if (n.op == OpKind::Layer)
            out += layerKeys(n.layer);
        out += '\n';
    }
    for (const TensorId t : g.outputs)
        out += "output " + g.tensors[t].name + '\n';
    out += "end\n";

    static runtime::Counter &prints = runtime::counter(
        "graph agr printed", runtime::CounterKind::Sum,
        runtime::Determinism::Deterministic);
    prints.charge(1);
    return out;
}

Graph
parseAgr(const std::string &text)
{
    ParseCursor cur{text};
    std::vector<std::string> tok;

    if (!nextLine(cur, tok) || tok.size() != 2 || tok[0] != "agr" ||
        tok[1] != "1")
        parseFail(cur.lineNo, "expected header 'agr 1'");
    if (!nextLine(cur, tok) || tok.size() != 2 || tok[0] != "graph")
        parseFail(cur.lineNo, "expected 'graph <name>'");

    Graph g;
    g.name = tok[1];
    std::unordered_map<std::string, TensorId> byName;
    bool sawEnd = false;

    while (nextLine(cur, tok)) {
        if (tok[0] == "end") {
            if (tok.size() != 1)
                parseFail(cur.lineNo, "trailing tokens after 'end'");
            sawEnd = true;
            break;
        }
        if (tok[0] == "tensor") {
            // tensor <name> <elems> <dtype> input|from <node>.<slot>
            if (tok.size() != 5 && tok.size() != 6)
                parseFail(cur.lineNo, "malformed tensor record");
            Tensor t;
            t.name = tok[1];
            t.elems = parseToken<std::uint64_t>(tok[2], cur.lineNo);
            t.dtype = parseToken<DataType>(tok[3], cur.lineNo);
            if (tok.size() == 5 && tok[4] == "input") {
                t.producer = -1;
            } else if (tok.size() == 6 && tok[4] == "from") {
                const std::size_t dot = tok[5].find('.');
                if (dot == std::string::npos)
                    parseFail(cur.lineNo,
                              "expected '<node>.<slot>' after 'from'");
                const unsigned producer = parseToken<unsigned>(
                    tok[5].substr(0, dot), cur.lineNo);
                if (producer > unsigned(INT_MAX))
                    parseFail(cur.lineNo, "producer index out of range");
                t.producer = int(producer);
                t.producerSlot = parseToken<unsigned>(
                    tok[5].substr(dot + 1), cur.lineNo);
            } else {
                parseFail(cur.lineNo,
                          "expected 'input' or 'from <node>.<slot>'");
            }
            if (!byName.emplace(t.name, TensorId(g.tensors.size()))
                     .second)
                parseFail(cur.lineNo, "duplicate tensor name");
            g.tensors.push_back(std::move(t));
        } else if (tok[0] == "node") {
            // node <name> <op>[ <kind>] in <list> [key=value ...]
            if (tok.size() < 5)
                parseFail(cur.lineNo, "malformed node record");
            Node n;
            n.name = tok[1];
            std::size_t at = 2;
            if (tok[at] == "layer") {
                n.op = OpKind::Layer;
                n.layer.kind = parseToken<model::LayerKind>(
                    tok[at + 1], cur.lineNo);
                n.layer.name = n.name;
                at += 2;
            } else if (tok[at] == "add") {
                n.op = OpKind::ResidualAdd;
                ++at;
            } else if (tok[at] == "concat") {
                n.op = OpKind::Concat;
                ++at;
            } else if (tok[at] == "split") {
                n.op = OpKind::Split;
                ++at;
            } else {
                parseFail(cur.lineNo, "unknown node op");
            }
            if (at + 1 >= tok.size() || tok[at] != "in")
                parseFail(cur.lineNo, "expected 'in <tensor-list>'");
            for (const std::string &ref :
                 splitList(tok[at + 1], cur.lineNo)) {
                const auto it = byName.find(ref);
                if (it == byName.end())
                    parseFail(cur.lineNo,
                              "node consumes an undefined tensor");
                n.inputs.push_back(it->second);
            }
            at += 2;
            for (; at < tok.size(); ++at) {
                if (n.op != OpKind::Layer)
                    parseFail(cur.lineNo,
                              "keys are only valid on layer nodes");
                const std::size_t eq = tok[at].find('=');
                if (eq == std::string::npos || eq == 0)
                    parseFail(cur.lineNo, "expected key=value");
                setFieldText(n.layer, tok[at].substr(0, eq),
                             tok[at].substr(eq + 1), "agr", cur.lineNo);
            }
            g.nodes.push_back(std::move(n));
        } else if (tok[0] == "output") {
            if (tok.size() != 2)
                parseFail(cur.lineNo, "malformed output record");
            const auto it = byName.find(tok[1]);
            if (it == byName.end())
                parseFail(cur.lineNo, "output names an undefined tensor");
            g.outputs.push_back(it->second);
        } else {
            parseFail(cur.lineNo, "unknown record");
        }
    }
    if (!sawEnd)
        parseFail(cur.lineNo, "missing 'end'");

    // Derive node output lists from the producer back-references:
    // slot k of node n is the tensor claiming (n, k). validate()
    // re-checks the correspondence it just built, plus everything a
    // hand-corrupted file could get wrong.
    for (std::size_t ti = 0; ti < g.tensors.size(); ++ti) {
        const Tensor &t = g.tensors[ti];
        if (t.producer < 0)
            continue;
        if (std::size_t(t.producer) >= g.nodes.size())
            throwError(ErrorCode::GraphInvalid,
                       "tensor '%s': producer %d out of range",
                       t.name.c_str(), t.producer);
        auto &outs = g.nodes[std::size_t(t.producer)].outputs;
        if (outs.size() <= t.producerSlot)
            outs.resize(t.producerSlot + 1, TensorId(ti));
        outs[t.producerSlot] = TensorId(ti);
    }
    g.validate();

    static runtime::Counter &parses = runtime::counter(
        "graph agr parsed", runtime::CounterKind::Sum,
        runtime::Determinism::Deterministic);
    parses.charge(1);
    return g;
}

} // namespace graph
} // namespace ascend
