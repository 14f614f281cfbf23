#include "dag/io.hh"

#include <fstream>
#include <sstream>

#include "support/logging.hh"

namespace dpu {

void
writeDag(const Dag &dag, std::ostream &out)
{
    out << "dpu-dag v1 " << dag.numNodes() << "\n";
    for (NodeId id = 0; id < dag.numNodes(); ++id) {
        const Node &n = dag.node(id);
        if (n.isInput()) {
            out << "i\n";
            continue;
        }
        out << (n.op == OpType::Add ? '+' : '*');
        for (NodeId src : n.operands)
            out << ' ' << src;
        out << "\n";
    }
}

namespace {

/** Fail on anything but whitespace left in `rest`. */
void
rejectTrailing(std::istream &rest, const char *where)
{
    std::string extra;
    if (rest >> extra)
        dpu_fatal(std::string("unexpected '") + extra + "' " + where +
                  " in dpu-dag stream");
}

} // namespace

Dag
readDag(std::istream &in)
{
    std::string magic, version;
    size_t count = 0;
    if (!(in >> magic >> version >> count) || magic != "dpu-dag" ||
        version != "v1") {
        dpu_fatal("not a dpu-dag v1 stream");
    }
    std::string line;
    std::getline(in, line); // consume rest of header line
    {
        std::istringstream rest(line);
        rejectTrailing(rest, "after the header");
    }

    Dag dag;
    for (size_t i = 0; i < count; ++i) {
        if (!std::getline(in, line))
            dpu_fatal("truncated dpu-dag stream");
        std::istringstream ls(line);
        std::string kind;
        if (!(ls >> kind))
            dpu_fatal("empty node line in dpu-dag stream");
        if (kind == "i") {
            rejectTrailing(ls, "after an input node");
            dag.addInput();
            continue;
        }
        OpType op;
        if (kind == "+")
            op = OpType::Add;
        else if (kind == "*")
            op = OpType::Mul;
        else
            dpu_fatal("unknown node kind '" + kind + "'");
        std::vector<NodeId> operands;
        uint64_t v;
        while (ls >> v) {
            if (v >= i)
                dpu_fatal("operand id out of range (not topological)");
            operands.push_back(static_cast<NodeId>(v));
        }
        if (!ls.eof()) { // stopped at a token that is not an id
            ls.clear();
            rejectTrailing(ls, "among operand ids");
        }
        if (operands.empty())
            dpu_fatal("compute node without operands");
        dag.addNode(op, operands);
    }
    rejectTrailing(in, "past the declared node count");
    return dag;
}

void
writeDagFile(const Dag &dag, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        dpu_fatal("cannot open '" + path + "' for writing");
    writeDag(dag, out);
}

Dag
readDagFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        dpu_fatal("cannot open '" + path + "' for reading");
    return readDag(in);
}

void
writeDot(const Dag &dag, std::ostream &out, const std::string &graph_name)
{
    out << "digraph " << graph_name << " {\n";
    out << "  rankdir=BT;\n";
    for (NodeId v = 0; v < dag.numNodes(); ++v) {
        const Node &n = dag.node(v);
        if (n.isInput()) {
            out << "  n" << v << " [shape=box,label=\"in" << v
                << "\"];\n";
        } else {
            out << "  n" << v << " [shape=circle,label=\""
                << (n.op == OpType::Add ? "+" : "x") << "\"];\n";
        }
        for (NodeId o : n.operands)
            out << "  n" << o << " -> n" << v << ";\n";
    }
    out << "}\n";
}

} // namespace dpu
